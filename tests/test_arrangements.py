"""Chamber walks: projections, kernels, stationary laws, and the urn sampler."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from lucewalks import (
    BlockOrderedSetPartition,
    ChamberChain,
    FaceWeightTable,
    Permutation,
    PreconditionError,
    RngStream,
    SignVector,
    ToleranceError,
    all_permutations,
    arrangements,
    brown_diaconis_sample,
    brown_diaconis_sample_many,
    chamber_index,
    ehrenfest_face_weights,
    enumerate_chambers,
    graph_coloring_face_weights,
    is_separating,
    kernels,
    luce_pmf,
    normalize,
    permutation_rank_many,
    project_boolean,
    project_braid,
    riffle_face_weights,
    sample_urn_many,
    stationary_exact,
    transition_matrix,
    tsetlin_face_weights,
    walk_step,
)

PATH4 = [(1, 2), (2, 3), (3, 4)]
PATH5 = [(1, 2), (2, 3), (3, 4), (4, 5)]
CYCLE7 = [(i, i % 7 + 1) for i in range(1, 8)]


def empirical_boolean_hist(rows):
    bits = (rows > 0).astype(np.int64)
    d = rows.shape[1]
    idx = bits @ (1 << np.arange(d - 1, -1, -1))
    return np.bincount(idx, minlength=1 << d)


def empirical_braid_hist(rows, n):
    return np.bincount(permutation_rank_many(rows), minlength=math.factorial(n))


def random_sparse_table(kind, dim, gen):
    """A random separating table with a handful of positive faces."""
    while True:
        if kind == "boolean":
            m = int(gen.integers(3, 6))
            faces = []
            for _ in range(m):
                ent = gen.integers(-1, 2, size=dim)
                faces.append(SignVector(ent.tolist()))
        else:
            chambers = enumerate_chambers("braid", dim)
            m = int(gen.integers(3, 6))
            faces = []
            for _ in range(m):
                if gen.random() < 0.5:
                    perm = chambers[int(gen.integers(len(chambers)))]
                    faces.append(
                        BlockOrderedSetPartition([{lab} for lab in perm.mapping])
                    )
                else:
                    keep = int(gen.integers(1, dim))
                    labs = list(gen.permutation(dim) + 1)
                    faces.append(
                        BlockOrderedSetPartition(
                            [set(labs[:keep]), set(labs[keep:])]
                        )
                    )
            faces = list(dict.fromkeys(faces))
        w = gen.uniform(0.2, 1.0, size=len(faces))
        w /= w.sum()
        table = FaceWeightTable(kind, dim, list(zip(faces, w.tolist())))
        if is_separating(table):
            return table


class TestSignVector:
    def test_round_trip(self):
        v = SignVector.from_string("+-0")
        assert v.entries == (1, -1, 0)
        assert v.to_string() == "+-0"
        assert not v.is_chamber
        assert SignVector.from_string("-+").is_chamber

    def test_validation(self):
        with pytest.raises(PreconditionError):
            SignVector((2, 0))
        with pytest.raises(PreconditionError):
            SignVector(())
        with pytest.raises(PreconditionError):
            SignVector.from_string("+x")

    def test_hash_eq(self):
        assert SignVector((1, -1)) == SignVector([1, -1])
        assert len({SignVector((1, 0)), SignVector((1, 0))}) == 1


class TestBlockOrderedSetPartition:
    def test_round_trip(self):
        f = BlockOrderedSetPartition.from_string("1,3/2/4,5")
        assert f.blocks == (frozenset({1, 3}), frozenset({2}), frozenset({4, 5}))
        assert f.to_string() == "1,3/2/4,5"
        assert f.n == 5
        assert not f.is_chamber
        assert BlockOrderedSetPartition.from_string("2/1").is_chamber

    def test_block_ids(self):
        f = BlockOrderedSetPartition.from_string("1,3/2/4,5")
        np.testing.assert_array_equal(f.block_ids(), [0, 1, 0, 2, 2])

    def test_validation(self):
        with pytest.raises(PreconditionError):
            BlockOrderedSetPartition([{1, 2}, {2, 3}])
        with pytest.raises(PreconditionError):
            BlockOrderedSetPartition([{1}, set(), {2}])
        with pytest.raises(PreconditionError):
            BlockOrderedSetPartition([{1}, {3}])


class TestProjections:
    def test_boolean_identity_face(self):
        c = SignVector((1, 1, -1))
        assert project_boolean(c, SignVector((0, 0, 0))) == c

    def test_boolean_hand_trace(self):
        c = SignVector((1, 1, -1))
        f = SignVector((0, -1, 0))
        assert project_boolean(c, f) == SignVector((1, -1, -1))

    def test_boolean_chamber_face_overrides(self):
        c = SignVector((1, 1, 1))
        f = SignVector((-1, 1, -1))
        assert project_boolean(c, f) == f

    def test_boolean_errors(self):
        with pytest.raises(PreconditionError):
            project_boolean(SignVector((1, 0)), SignVector((1, 1)))
        with pytest.raises(PreconditionError):
            project_boolean(SignVector((1, 1)), SignVector((1, 1, 1)))

    def test_braid_center_face(self):
        c = Permutation((2, 4, 1, 5, 3))
        f = BlockOrderedSetPartition([{1, 2, 3, 4, 5}])
        assert project_braid(c, f) == c

    def test_braid_hand_trace(self):
        c = Permutation((2, 4, 1, 5, 3))
        f = BlockOrderedSetPartition.from_string("1,3/2/4,5")
        assert project_braid(c, f) == Permutation((1, 3, 2, 4, 5))

    def test_braid_chamber_face_overrides(self):
        c = Permutation((3, 1, 2))
        f = BlockOrderedSetPartition([{2}, {3}, {1}])
        assert project_braid(c, f) == Permutation((2, 3, 1))

    def test_braid_size_mismatch(self):
        with pytest.raises(PreconditionError):
            project_braid(Permutation((1, 2)), BlockOrderedSetPartition([{1}, {2}, {3}]))

    def test_boolean_idempotent(self, np_rng):
        for _ in range(50):
            c = SignVector(np_rng.choice([-1, 1], size=4).tolist())
            f = SignVector(np_rng.integers(-1, 2, size=4).tolist())
            once = project_boolean(c, f)
            assert project_boolean(once, f) == once

    def test_braid_idempotent(self, np_rng):
        for _ in range(50):
            c = Permutation((np_rng.permutation(5) + 1).tolist())
            ids = np_rng.integers(0, 3, size=5)
            blocks = [
                set((np.flatnonzero(ids == b) + 1).tolist())
                for b in range(3)
                if np.any(ids == b)
            ]
            f = BlockOrderedSetPartition(blocks)
            once = project_braid(c, f)
            assert project_braid(once, f) == once


@given(
    st.lists(st.sampled_from([-1, 1]), min_size=3, max_size=6),
    st.data(),
)
@settings(max_examples=40)
def test_boolean_projection_idempotence_property(chamber, data):
    d = len(chamber)
    face = data.draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=d, max_size=d))
    c, f = SignVector(chamber), SignVector(face)
    once = project_boolean(c, f)
    assert project_boolean(once, f) == once
    # projection output is always a chamber
    assert once.is_chamber


class TestFaceWeightTable:
    def test_sum_must_be_one(self):
        f = SignVector((1, 0))
        with pytest.raises(PreconditionError):
            FaceWeightTable("boolean", 2, [(f, 0.5)])

    def test_negative_weight_rejected(self):
        f, g = SignVector((1, 0)), SignVector((0, 1))
        with pytest.raises(PreconditionError):
            FaceWeightTable("boolean", 2, [(f, 1.5), (g, -0.5)])

    def test_duplicates_merge(self):
        f, g = SignVector((1, 0)), SignVector((0, 1))
        t = FaceWeightTable("boolean", 2, [(f, 0.25), (g, 0.5), (f, 0.25)])
        assert t.m == 2
        assert t.weight_of(f) == pytest.approx(0.5)

    def test_zero_weight_dropped(self):
        f, g = SignVector((1, 0)), SignVector((0, 1))
        t = FaceWeightTable("boolean", 2, [(f, 1.0), (g, 0.0)])
        assert t.m == 1
        assert t.faces == (f,)

    def test_kind_checked(self):
        with pytest.raises(PreconditionError):
            FaceWeightTable("boolean", 2, [(BlockOrderedSetPartition([{1}, {2}]), 1.0)])

    def test_canonical_order(self, np_rng):
        faces = [SignVector((1, 0)), SignVector((0, 1)), SignVector((-1, -1))]
        pairs = list(zip(faces, (0.2, 0.3, 0.5)))
        t1 = FaceWeightTable("boolean", 2, pairs)
        t2 = FaceWeightTable("boolean", 2, list(reversed(pairs)))
        assert t1.faces == t2.faces
        np.testing.assert_array_equal(t1.weights, t2.weights)


class TestWalkStep:
    def test_identity_face_never_moves(self):
        d = 3
        table = FaceWeightTable("boolean", d, [(SignVector((0,) * d), 1.0)])
        chain = ChamberChain(table, SignVector((1, -1, 1)))
        rng = RngStream(3)
        for _ in range(20):
            assert walk_step(chain, rng) == SignVector((1, -1, 1))

    def test_tsetlin_one_step_moves_to_top(self):
        w = normalize([0.5, 0.3, 0.2])
        table = tsetlin_face_weights(w)
        rng = RngStream(5)
        counts = {1: 0, 2: 0, 3: 0}
        trials = 20_000
        for _ in range(trials):
            chain = ChamberChain(table, Permutation((2, 3, 1)))
            new = walk_step(chain, rng)
            top = new.mapping[0]
            counts[top] += 1
            # the rest keep their relative order
            rest = [lab for lab in (2, 3, 1) if lab != top]
            assert list(new.mapping[1:]) == rest
        for lab, th in zip((1, 2, 3), w.weights):
            assert abs(counts[lab] / trials - th) <= 0.02


class TheoremWalkKernel:
    """walk_step one-step frequencies match the transition matrix row."""


class TestWalkKernelTheorem:
    def test_chi_square_one_step(self, dense_kernel):
        gen = np.random.default_rng(11)
        w = normalize(gen.uniform(0.3, 1.0, size=4))
        table = tsetlin_face_weights(w)
        start = Permutation((3, 1, 4, 2))
        row = dense_kernel(table)[chamber_index(start)]
        rng = RngStream(19)
        counts = np.zeros(row.size)
        trials = 100_000
        for _ in range(trials):
            chain = ChamberChain(table, start)
            counts[chamber_index(walk_step(chain, rng))] += 1
        mask = row > 0
        assert counts[~mask].sum() == 0
        stat = scipy.stats.chisquare(counts[mask], row[mask] * trials)
        assert stat.pvalue >= 0.001


def as_dense(k_mat):
    """The kernel's N x N matrix, one unit row vector at a time."""
    return np.array([e @ k_mat for e in np.eye(k_mat.shape[0])])


class TestTransitionMatrix:
    def test_identity_face_only(self, dense_kernel):
        table = FaceWeightTable("boolean", 2, [(SignVector((0, 0)), 1.0)])
        np.testing.assert_allclose(dense_kernel(table), np.eye(4))
        np.testing.assert_array_equal(as_dense(transition_matrix(table)), np.eye(4))

    def test_braid_two_tsetlin(self, dense_kernel):
        p = 0.7
        table = tsetlin_face_weights([p, 1 - p])
        for k in (dense_kernel(table), as_dense(transition_matrix(table))):
            np.testing.assert_allclose(k, [[p, 1 - p], [p, 1 - p]], atol=1e-15)

    def test_rows_stochastic_random_tables(self, np_rng, dense_kernel):
        for kind, dim in (("boolean", 4), ("braid", 4)):
            table = random_sparse_table(kind, dim, np_rng)
            k = dense_kernel(table)
            np.testing.assert_allclose(k.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(k >= 0)

    def test_too_large(self):
        with pytest.raises(PreconditionError):
            transition_matrix(
                FaceWeightTable("boolean", 16, [(SignVector((0,) * 16), 1.0)])
            )

    def test_entry_budget(self):
        # 2^15 chambers x 2049 faces is one row of faces over KERNEL_NNZ_MAX
        faces = [SignVector(np.array(np.unravel_index(i, (3,) * 15)) - 1)
                 for i in range(1, 2050)]
        table = FaceWeightTable("boolean", 15, [(f, 1.0 / len(faces)) for f in faces])
        with pytest.raises(PreconditionError, match="entries"):
            transition_matrix(table)

    def test_returns_face_ranks(self):
        table = riffle_face_weights(3)
        k = transition_matrix(table)
        assert k.ranks.shape == (table.m, 6) and k.ranks.dtype == np.int32
        assert k.ranks.flags.c_contiguous
        assert k.nbytes == k.ranks.nbytes + table.weights.nbytes
        out = np.full(6, 1 / 6) @ k
        assert isinstance(out, np.ndarray) and out.dtype == np.float64 and out.shape == (6,)

    @pytest.mark.parametrize(
        "table",
        [tsetlin_face_weights([0.4, 0.3, 0.2, 0.1]), riffle_face_weights(4),
         ehrenfest_face_weights(3), graph_coloring_face_weights([(1, 2), (2, 3), (3, 4)])],
        ids=["tsetlin4", "riffle4", "ehrenfest3", "coloring-path4"],
    )
    def test_matches_scalar_projections(self, table, dense_kernel):
        # both add the weights in face order, so e_c @ K is the oracle's row c to the bit
        np.testing.assert_array_equal(as_dense(transition_matrix(table)), dense_kernel(table))

    @pytest.mark.parametrize("table", [riffle_face_weights(7),
                                       tsetlin_face_weights(normalize(np.arange(1.0, 9.0)))],
                             ids=["riffle7", "tsetlin8"])
    def test_ranks_are_lehmer_ranks(self, table):
        # the searched keys rank each projected listing as the Lehmer code does
        listed = np.array([c.mapping for c in enumerate_chambers("braid", table.dim)]) - 1
        ranks = transition_matrix(table).ranks
        for f, face in enumerate(table.entries_matrix()):
            want = permutation_rank_many(kernels.project_orders(listed, face) + 1)
            np.testing.assert_array_equal(ranks[f], want)


class TestIsSeparating:
    def test_identity_face_only(self):
        table = FaceWeightTable("braid", 3, [(BlockOrderedSetPartition([{1, 2, 3}]), 1.0)])
        assert not is_separating(table)

    def test_tsetlin_always(self):
        assert is_separating(tsetlin_face_weights(normalize([1.0, 2.0, 3.0])))

    def test_boolean_missing_coordinate(self):
        table = FaceWeightTable(
            "boolean", 2, [(SignVector((1, 0)), 0.5), (SignVector((-1, 0)), 0.5)]
        )
        assert not is_separating(table)

    def test_braid_matches_pairwise_oracle(self, np_rng):
        # a pair of labels is split by some face exactly when their columns differ
        verdicts = set()
        for _ in range(300):
            n, m = int(np_rng.integers(1, 9)), int(np_rng.integers(1, 4))
            faces = []
            for _ in range(m):
                ids = np_rng.integers(0, int(np_rng.integers(1, n + 1)), size=n)
                faces.append(BlockOrderedSetPartition(
                    [np.flatnonzero(ids == b) + 1 for b in np.unique(ids)]))
            faces = list(dict.fromkeys(faces))
            table = FaceWeightTable("braid", n, [(f, 1 / len(faces)) for f in faces])
            ent = table.entries_matrix()
            split = np.any(ent[:, :, None] != ent[:, None, :], axis=0) | np.eye(n, dtype=bool)
            verdicts.add(bool(split.all()))
            assert is_separating(table) == bool(split.all())
        assert verdicts == {True, False}

    def test_braid_reports_the_first_tie_in_lexsort_order(self, np_rng):
        # the labels named are the first equal neighbours of np.lexsort's column order
        named = set()
        for _ in range(200):
            n, m = int(np_rng.integers(2, 9)), int(np_rng.integers(1, 6))
            faces = []
            for _ in range(m):
                ids = np_rng.integers(0, int(np_rng.integers(1, 4)), size=n)
                faces.append(BlockOrderedSetPartition(
                    [np.flatnonzero(ids == b) + 1 for b in np.unique(ids)]))
            faces = list(dict.fromkeys(faces))
            table = FaceWeightTable("braid", n, [(f, 1 / len(faces)) for f in faces])
            ent = table.entries_matrix()
            lab = np.lexsort(ent)
            tied = np.flatnonzero(np.all(ent[:, lab[1:]] == ent[:, lab[:-1]], axis=0))
            expected = f"splits labels {lab[tied[0]] + 1} and {lab[tied[0] + 1] + 1}" \
                if tied.size else None
            assert arrangements._uncrossed_hyperplane(table) == expected
            named.add(expected)
        assert None in named and len(named) > 10

    @pytest.mark.parametrize("kind", ["boolean", "braid"])
    def test_matches_closed_class_oracle(self, np_rng, dense_kernel, kind):
        # the law is unique exactly when the kernel's graph has one closed class
        from scipy.sparse.csgraph import connected_components

        verdicts = set()
        for _ in range(60):
            dim, m = int(np_rng.integers(1, 5 if kind == "braid" else 6)), int(np_rng.integers(1, 4))
            faces = []
            for _ in range(m):
                if kind == "boolean":
                    faces.append(SignVector(np_rng.integers(-1, 2, size=dim)))
                else:
                    ids = np_rng.integers(0, int(np_rng.integers(1, dim + 1)), size=dim)
                    faces.append(BlockOrderedSetPartition(
                        [np.flatnonzero(ids == b) + 1 for b in np.unique(ids)]))
            faces = list(dict.fromkeys(faces))
            table = FaceWeightTable(kind, dim, [(f, 1 / len(faces)) for f in faces])
            edges = dense_kernel(table) > 0
            n_comp, labels = connected_components(edges, directed=True, connection="strong")
            src, dst = np.nonzero(edges)
            n_closed = n_comp - np.unique(labels[src][labels[src] != labels[dst]]).size
            verdicts.add(n_closed == 1)
            assert is_separating(table) == (n_closed == 1)
        assert verdicts == {True, False}

    def test_braid_memory_is_linear_in_the_table(self):
        # the pairwise test held an (m, n, n) tensor: 64 MB here
        table = tsetlin_face_weights(np.full(400, 1 / 400))
        ent = table.entries_matrix()
        tracemalloc.start()
        try:
            assert is_separating(table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * ent.nbytes + 2**17


class TheoremUniqueStationary:
    """Separating weights give a one-dimensional eigenvalue-1 eigenspace."""


class TestUniqueStationaryTheorem:
    def test_rank_separating(self, np_rng, dense_kernel):
        for kind, dim in (("braid", 4), ("boolean", 5), ("braid", 3)):
            table = random_sparse_table(kind, dim, np_rng)
            k = dense_kernel(table)
            nn = k.shape[0]
            rank = np.linalg.matrix_rank(k.T - np.eye(nn))
            assert rank == nn - 1

    def test_rank_identity_table(self, dense_kernel):
        table = FaceWeightTable("boolean", 3, [(SignVector((0, 0, 0)), 1.0)])
        k = dense_kernel(table)
        assert np.linalg.matrix_rank(k.T - np.eye(8)) < 7
        with pytest.raises(ToleranceError, match="not unique: no positive-weight face pins "
                                                 "coordinate 1"):
            stationary_exact(transition_matrix(table))

    def test_identity_matrix_rejected(self):
        # only the kernel of a face table is taken; its uniqueness comes from the table
        with pytest.raises(PreconditionError, match="transition_matrix kernel"):
            stationary_exact(np.eye(6))

    def test_non_stochastic_rejected(self):
        with pytest.raises(PreconditionError):
            stationary_exact(np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_non_separating_past_old_rank_cap(self):
        # coordinates 1..10 are pinned, 11 never moves: 2048 chambers, two closed classes
        pairs = []
        for i in range(10):
            for sign in (-1, 1):
                entries = [0] * 11
                entries[i] = sign
                pairs.append((SignVector(entries), 1.0 / 20))
        table = FaceWeightTable("boolean", 11, pairs)
        with pytest.raises(ToleranceError, match="not unique: no positive-weight face pins "
                                                 "coordinate 11"):
            stationary_exact(transition_matrix(table))

    def test_non_separating_braid_names_labels(self):
        # labels 2 and 4 always share a block
        table = FaceWeightTable("braid", 4, [(BlockOrderedSetPartition([{1}, {2, 4}, {3}]), 0.5),
                                             (BlockOrderedSetPartition([{3}, {1, 2, 4}]), 0.5)])
        with pytest.raises(ToleranceError, match="no positive-weight face splits labels 2 and 4"):
            stationary_exact(transition_matrix(table))
        with pytest.raises(PreconditionError, match="splits labels 2 and 4"):
            brown_diaconis_sample_many(table, 1, RngStream(0))

    def test_transient_states_get_zero(self):
        # no face moves label 4 up, so it sinks to the bottom and stays there
        w = [0.5, 0.3, 0.2]
        table = FaceWeightTable("braid", 4, [
            (BlockOrderedSetPartition([{i}, set(range(1, 5)) - {i}]), w[i - 1])
            for i in (1, 2, 3)])
        want = [luce_pmf(w, p.mapping[:3]) if p.mapping[3] == 4 else 0.0
                for p in enumerate_chambers("braid", 4)]
        np.testing.assert_allclose(stationary_exact(transition_matrix(table)), want, atol=1e-12)

    @pytest.mark.parametrize("edges", [PATH5, [(1, 2), (2, 3), (3, 4), (4, 1)]],
                             ids=["path5", "cycle4"])
    def test_unreached_chambers_get_exact_zero(self, edges):
        # every face paints an edge one colour, so no walk step ends on an alternating colouring
        table = graph_coloring_face_weights(edges)
        pi = stationary_exact(transition_matrix(table))
        signs = np.array([c.entries for c in enumerate_chambers("boolean", table.dim)])
        alternating = np.all(signs[:, 1:] != signs[:, :-1], axis=1)
        assert alternating.sum() == 2 and np.all(pi[alternating] == 0.0)
        assert np.all(pi[~alternating] > 0.0)

    @pytest.mark.parametrize("bad", [
        np.array([[1.2, -0.2], [0.5, 0.5]]),
        np.array([[np.nan, 1.0], [0.5, 0.5]]),
        np.ones((2, 3)) / 3,
        np.ones((0, 0)),
        scipy.sparse.csr_array(np.full((2, 2), 0.5)),
        [[0.5, 0.5], [0.5, 0.5]],
    ], ids=["negative", "nan", "non-square", "empty", "csr", "list"])
    def test_bad_matrix_rejected(self, bad):
        with pytest.raises(PreconditionError):
            stationary_exact(bad)

    def test_input_left_unchanged(self):
        table = tsetlin_face_weights(normalize([1.0, 2.0, 3.0, 4.0]))
        k = transition_matrix(table)
        before = [a.copy() for a in (k.ranks, table.entries_matrix(), table.weights)]
        stationary_exact(k)
        for a, b in zip((k.ranks, table.entries_matrix(), table.weights), before):
            np.testing.assert_array_equal(a, b)

    def test_stationary_fixed_point(self, np_rng):
        table = random_sparse_table("braid", 4, np_rng)
        k = transition_matrix(table)
        pi = stationary_exact(k)
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(pi @ k, pi, atol=1e-10)


class TheoremMoveToFrontStationary:
    """The move-to-front chain's stationary law is the sequential-draw pmf."""


class TestMoveToFrontStationaryTheorem:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_luce(self, np_rng, n):
        for _ in range(20):
            w = normalize(np_rng.uniform(0.2, 2.0, size=n))
            pi = stationary_exact(transition_matrix(tsetlin_face_weights(w)))
            expected = np.array([luce_pmf(w, p) for p in all_permutations(n)])
            np.testing.assert_allclose(pi, expected, atol=1e-10)

    def test_half_third_sixth(self):
        w = np.array([1 / 2, 1 / 3, 1 / 6])
        pi = stationary_exact(transition_matrix(tsetlin_face_weights(w)))
        expected = np.array([luce_pmf(w, p) for p in all_permutations(3)])
        np.testing.assert_allclose(pi, expected, atol=1e-10)

    def test_n8_matches_luce(self, np_rng):
        w = normalize(np_rng.uniform(0.2, 2.0, size=8))
        pi = stationary_exact(transition_matrix(tsetlin_face_weights(w)))
        expected = np.array([luce_pmf(w, p) for p in all_permutations(8)])
        np.testing.assert_allclose(pi, expected, atol=1e-9)

    def test_slow_mixing(self):
        # labels 1 and 2 almost never move to the front: power iteration needs ~2e5 steps
        w = normalize([1e-4, 3e-4, 1.0, 1.0, 1.0, 1.0])
        pi = stationary_exact(transition_matrix(tsetlin_face_weights(w)))
        expected = np.array([luce_pmf(w, p) for p in all_permutations(6)])
        np.testing.assert_allclose(pi, expected, atol=1e-10)

    @pytest.mark.parametrize("weights, min_runs", [
        (lambda: chambers_workload_weights(5101, 7), 1),
        (lambda: chambers_workload_weights(260, 6), 1),
        (lambda: chambers_workload_weights(82, 7), 1),
        (lambda: normalize([1, 1e-4, 3e-4, 1, 1, 1]), 2),
    ], ids=["seed5101_n7", "seed260_n6", "seed82_n7", "slow_mixing"])
    def test_solves_past_breakdown(self, monkeypatch, weights, min_runs):
        # BiCGSTAB without restarts stops at residuals 9.9e-9, 1.3e-7 and 1.4e-8 on the
        # first three and leaves an entry of -2.4e-9 on the last, which restarts here
        runs = []
        solve = arrangements._bicgstab
        monkeypatch.setattr(arrangements, "_bicgstab", lambda *a: runs.append(1) or solve(*a))
        w = weights()
        pi = stationary_exact(transition_matrix(tsetlin_face_weights(w)))
        expected = np.array([luce_pmf(w, p) for p in all_permutations(w.n)])
        assert np.abs(pi - expected).max() <= 1e-12
        assert min_runs <= len(runs) <= 3

    def test_requires_normalized(self):
        with pytest.raises(PreconditionError):
            tsetlin_face_weights([1.0, 2.0])


def chambers_workload_weights(seed, n):
    """The Tsetlin weights of size n (6 or 7) that the ``chambers`` workload draws at ``seed``."""
    g = np.random.default_rng([seed, 3])
    w6, w7 = g.uniform(0.5, 2.0, 6), g.uniform(0.5, 2.0, 7)
    return normalize(w6 if n == 6 else w7)


class TestRiffleEhrenfest:
    def test_riffle_single_card(self):
        t = riffle_face_weights(1)
        assert t.m == 1
        assert t.weights[0] == pytest.approx(1.0)

    def test_riffle_face_count(self):
        # 2^n coin outcomes collapse the two one-block outcomes together
        t = riffle_face_weights(4)
        assert t.m == 2**4 - 1
        assert t.weight_of(BlockOrderedSetPartition([{1, 2, 3, 4}])) == pytest.approx(2 / 16)

    def test_riffle_stationary_uniform(self):
        pi = stationary_exact(transition_matrix(riffle_face_weights(4)))
        np.testing.assert_allclose(pi, np.full(24, 1 / 24), atol=1e-10)

    def test_riffle_too_large(self):
        with pytest.raises(PreconditionError):
            riffle_face_weights(16)

    def test_ehrenfest_stationary_uniform(self):
        pi = stationary_exact(transition_matrix(ehrenfest_face_weights(3)))
        np.testing.assert_allclose(pi, np.full(8, 1 / 8), atol=1e-10)

    def test_ehrenfest_one_coordinate_mixes_in_one_step(self, dense_kernel):
        table = ehrenfest_face_weights(1)
        for k in (dense_kernel(table), as_dense(transition_matrix(table))):
            np.testing.assert_allclose(k, [[0.5, 0.5], [0.5, 0.5]])

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_ehrenfest_separating(self, d):
        assert is_separating(ehrenfest_face_weights(d))


class TheoremUrnSampler:
    """Drawing all faces without replacement and multiplying them in urn
    order, F1 F2 ... Fm, produces an exact stationary sample; projecting any
    start chamber onto the faces in reverse order gives the same product."""


class TestUrnSamplerTheorem:
    def test_braid_tsetlin(self):
        w = np.array([1 / 2, 1 / 3, 1 / 6])
        table = tsetlin_face_weights(w)
        rows = brown_diaconis_sample_many(table, 100_000, RngStream(23))
        hist = empirical_braid_hist(rows, 3)
        expected = np.array([luce_pmf(w, p) for p in all_permutations(3)])
        tv = 0.5 * np.abs(hist / hist.sum() - expected).sum()
        assert tv <= 0.01

    def test_face_urn_chi_square_n4(self):
        # the last face applied is the first drawn, so a Tsetlin sample lists
        # the labels in the draw order of their faces: the face urn itself
        w = np.array([0.4, 0.3, 0.2, 0.1])
        rows = brown_diaconis_sample_many(tsetlin_face_weights(w), 200_000, RngStream(43))
        counts = empirical_braid_hist(rows, 4)
        expected = np.array([luce_pmf(w, p) for p in all_permutations(4)]) * rows.shape[0]
        assert scipy.stats.chisquare(counts, expected).pvalue >= 0.001

    def test_boolean_ehrenfest(self):
        table = ehrenfest_face_weights(3)
        rows = brown_diaconis_sample_many(table, 100_000, RngStream(29))
        hist = empirical_boolean_hist(rows)
        tv = 0.5 * np.abs(hist / hist.sum() - 1 / 8).sum()
        assert tv <= 0.01

    @pytest.mark.parametrize("make", [
        lambda: riffle_face_weights(4),
        lambda: riffle_face_weights(8),
        lambda: tsetlin_face_weights(normalize(np.arange(1.0, 6.0))),
        lambda: tsetlin_face_weights(normalize(np.arange(1.0, 31.0))),
        lambda: ehrenfest_face_weights(6),
        lambda: graph_coloring_face_weights(CYCLE7),
    ], ids=["riffle4", "riffle8", "tsetlin5", "tsetlin30", "ehrenfest6", "cycle7"])
    def test_product_ignores_start_row(self, np_rng, reverse_chain, make):
        # separating faces multiply to a chamber, so the row they act on is overwritten
        table = make()
        want = brown_diaconis_sample_many(table, 2000, RngStream(53))
        orders = kernels.weighted_order_many(table.weights,
                                             RngStream(53).random((2000, table.m)))
        for _ in range(3):
            if table.kind == "boolean":
                start = np_rng.choice(np.array([-1, 1], dtype=np.int8), size=table.dim)
                got = reverse_chain(kernels.project_signs, table.entries_matrix(), orders,
                                    start)
            else:
                start = np_rng.permutation(table.dim)
                got = reverse_chain(kernels.project_orders, table.entries_matrix(), orders,
                                    start) + 1
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n", [3, 8, 30, 200])
    def test_tsetlin_urn_is_sample_urn(self, np_rng, n):
        # the Tsetlin draw lists the labels in the urn order of their faces
        w = normalize(np_rng.uniform(0.2, 2.0, size=n))
        got = brown_diaconis_sample_many(tsetlin_face_weights(w), 500, RngStream(n))
        np.testing.assert_array_equal(got, sample_urn_many(w, 500, RngStream(n)))

    @pytest.mark.parametrize("kind,dim", [("boolean", 3), ("braid", 3)])
    def test_random_sparse_table(self, np_rng, kind, dim):
        table = random_sparse_table(kind, dim, np_rng)
        pi = stationary_exact(transition_matrix(table))
        rows = brown_diaconis_sample_many(table, 100_000, RngStream(41))
        if kind == "boolean":
            hist = empirical_boolean_hist(rows)
        else:
            hist = empirical_braid_hist(rows, dim)
        tv = 0.5 * np.abs(hist / hist.sum() - pi).sum()
        assert tv <= 0.01

    @pytest.mark.parametrize("make", [lambda: tsetlin_face_weights([0.5, 0.3, 0.2]),
                                      lambda: ehrenfest_face_weights(3)],
                             ids=["braid", "boolean"])
    def test_single_draw_is_row_zero(self, make):
        table = make()
        row = brown_diaconis_sample_many(table, 1, RngStream(59))[0]
        want = SignVector(row) if table.kind == "boolean" else Permutation(row)
        assert brown_diaconis_sample(table, RngStream(59)) == want

    def test_single_chamber_face(self):
        f = SignVector((1, -1))
        table = FaceWeightTable("boolean", 2, [(f, 1.0)])
        got = brown_diaconis_sample(table, RngStream(2))
        assert got == f

    def test_non_separating_rejected(self):
        table = FaceWeightTable("boolean", 2, [(SignVector((1, 0)), 1.0)])
        with pytest.raises(PreconditionError):
            brown_diaconis_sample_many(table, 10, RngStream(0))


class TheoremColoringStationary:
    """Edge-repainting walk on path graphs: flip symmetry, impossible
    alternations, constant colorings dominate."""


class TestColoringStationaryTheorem:
    @pytest.mark.parametrize("edges,nv", [(PATH4, 4), (PATH5, 5)])
    def test_path_properties(self, edges, nv):
        table = graph_coloring_face_weights(edges)
        pi = stationary_exact(transition_matrix(table))
        chambers = enumerate_chambers("boolean", nv)
        lookup = {c: pi[i] for i, c in enumerate(chambers)}

        # flip invariance
        for c in chambers:
            flipped = SignVector(tuple(-e for e in c.entries))
            assert abs(lookup[c] - lookup[flipped]) <= 1e-12

        # both alternating colorings are unreachable
        alt = SignVector(tuple(1 if i % 2 == 0 else -1 for i in range(nv)))
        alt2 = SignVector(tuple(-e for e in alt.entries))
        assert lookup[alt] <= 1e-12
        assert lookup[alt2] <= 1e-12

        # the constant colorings strictly dominate every other state
        const = lookup[SignVector((1,) * nv)]
        assert const == pytest.approx(lookup[SignVector((-1,) * nv)], abs=1e-12)
        for c in chambers:
            if len(set(c.entries)) > 1:
                assert const > lookup[c] + 1e-12

    def test_single_edge_constant_after_one_step(self):
        rng = RngStream(7)
        table = graph_coloring_face_weights([(1, 2)])
        for _ in range(10):
            out = walk_step(ChamberChain(table, (1, -1)), rng)
            assert out in (SignVector((1, 1)), SignVector((-1, -1)))

    def test_step_changes_only_edge_endpoints(self):
        rng = RngStream(9)
        col = SignVector((1, -1, 1, -1))
        table = graph_coloring_face_weights(PATH4)
        for _ in range(20):
            out = walk_step(ChamberChain(table, col), rng)
            diff = {i + 1 for i, (a, b) in enumerate(zip(col.entries, out.entries)) if a != b}
            assert any(diff <= set(e) for e in PATH4)

    def test_graph_validation(self):
        with pytest.raises(PreconditionError):
            graph_coloring_face_weights([(1, 1)])
        with pytest.raises(PreconditionError):
            graph_coloring_face_weights([(1, 2), (2, 1)])
        with pytest.raises(PreconditionError):
            graph_coloring_face_weights([(1, 2), (3, 4)])
        with pytest.raises(PreconditionError):
            graph_coloring_face_weights([])


class TestEnumerationIndex:
    def test_boolean_round_trip(self):
        chambers = enumerate_chambers("boolean", 3)
        assert len(chambers) == 8
        for i, c in enumerate(chambers):
            assert chamber_index(c) == i

    def test_braid_round_trip(self):
        chambers = enumerate_chambers("braid", 4)
        assert len(chambers) == 24
        for i, c in enumerate(chambers):
            assert chamber_index(c) == i

    def test_too_large(self):
        with pytest.raises(PreconditionError):
            enumerate_chambers("braid", 9)


class TestTableCap:
    """Listed tables refuse more than ``TABLE_ENTRIES_MAX`` faces x dim entries."""

    @pytest.mark.parametrize("make,entries", [
        (lambda: tsetlin_face_weights(normalize(np.ones(4))), 4 * 4),
        (lambda: ehrenfest_face_weights(3), 2 * 3 * 3),
        (lambda: graph_coloring_face_weights(PATH4), 2 * 3 * 4),
    ], ids=["tsetlin", "ehrenfest", "coloring"])
    def test_cap_is_inclusive(self, monkeypatch, make, entries):
        monkeypatch.setattr(arrangements, "TABLE_ENTRIES_MAX", entries)
        table = make()
        assert table.m * table.dim == entries
        monkeypatch.setattr(arrangements, "TABLE_ENTRIES_MAX", entries - 1)
        with pytest.raises(PreconditionError, match=f"over the cap of {entries - 1}"):
            make()

    def test_coloring_cap_precedes_graph_work(self):
        # a 10**9-vertex edge would need a 10**9-entry union-find before the
        # connectivity check; the cap refuses it as soon as n is known
        tracemalloc.start()
        try:
            with pytest.raises(PreconditionError, match="over the cap"):
                graph_coloring_face_weights([(1, 10**9)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


# The per-face listings of the named tables, built through the public pairs
# constructor: the oracles of the array-built tables.

def listed_tsetlin(w):
    w = normalize(w)
    n = w.n
    pairs = []
    for i in range(1, n + 1):
        rest = [j for j in range(1, n + 1) if j != i]
        blocks = [[i], rest] if rest else [[i]]
        pairs.append((BlockOrderedSetPartition(blocks), w.weights[i - 1]))
    return FaceWeightTable("braid", n, pairs)


def listed_riffle(n):
    labels = range(1, n + 1)
    pairs = []
    for r in range(n + 1):
        for s in itertools.combinations(labels, r):
            comp = [j for j in labels if j not in s]
            blocks = [b for b in (list(s), comp) if b]
            pairs.append((BlockOrderedSetPartition(blocks), 0.5 ** n))
    return FaceWeightTable("braid", n, pairs)


def listed_ehrenfest(d):
    pairs = []
    for i in range(d):
        for s in (-1, 1):
            entries = [0] * d
            entries[i] = s
            pairs.append((SignVector(entries), 1.0 / (2 * d)))
    return FaceWeightTable("boolean", d, pairs)


def listed_coloring(edges):
    keys = [(min(u, v), max(u, v)) for u, v in edges]
    n = max(max(e) for e in keys)
    pairs = []
    for u, v in keys:
        for s in (-1, 1):
            entries = [0] * n
            entries[u - 1] = s
            entries[v - 1] = s
            pairs.append((SignVector(entries), 1.0 / (2 * len(keys))))
    return FaceWeightTable("boolean", n, pairs)


GRAPHS = {
    "edge": [(1, 2)],
    "path5": PATH5,
    "path_reversed": [(v, u) for u, v in reversed(PATH5)],
    "cycle7": CYCLE7,
    "complete5": list(itertools.combinations(range(1, 6), 2)),
    "complete6_shuffled": [(6, 1), (2, 5), (3, 4), (1, 2), (4, 6), (5, 3), (2, 3), (1, 4),
                           (5, 6), (3, 6), (1, 5), (2, 4), (4, 5), (1, 3), (2, 6)],
}


def _tsetlin_weights(n):
    return np.random.default_rng(n).uniform(0.1, 1.0, n)


NAMED_TABLES = (
    [(f"riffle{n}", lambda n=n: riffle_face_weights(n), lambda n=n: listed_riffle(n))
     for n in range(1, 11)]
    + [(f"tsetlin{n}", lambda n=n: tsetlin_face_weights(normalize(_tsetlin_weights(n))),
        lambda n=n: listed_tsetlin(_tsetlin_weights(n))) for n in (1, 2, 5, 30)]
    + [(f"ehrenfest{d}", lambda d=d: ehrenfest_face_weights(d),
        lambda d=d: listed_ehrenfest(d)) for d in (1, 3, 64)]
    + [(f"coloring_{name}", lambda e=e: graph_coloring_face_weights(e),
        lambda e=e: listed_coloring(e)) for name, e in GRAPHS.items()]
)


def assert_same_table(got, want):
    assert (got.kind, got.dim, got.m) == (want.kind, want.dim, want.m)
    assert got.entries_matrix().dtype == want.entries_matrix().dtype
    np.testing.assert_array_equal(got.entries_matrix(), want.entries_matrix())
    assert got.weights.dtype == want.weights.dtype
    assert got.weights.tobytes() == want.weights.tobytes()


@pytest.fixture
def face_constructions(monkeypatch):
    """The class names of the face objects constructed while the test runs, in order."""
    made = []
    for cls in (SignVector, BlockOrderedSetPartition):
        init = cls.__init__

        def counting(self, *a, _init=init, **k):
            made.append(type(self).__name__)
            _init(self, *a, **k)

        monkeypatch.setattr(cls, "__init__", counting)
    return made


class TestArrayTables:
    """Named tables are written as rows by numpy; faces are built only on request."""

    @pytest.mark.parametrize("make,listed", [t[1:] for t in NAMED_TABLES],
                             ids=[t[0] for t in NAMED_TABLES])
    def test_builder_equals_listing(self, make, listed):
        assert_same_table(make(), listed())

    @pytest.mark.parametrize("make", [t[1] for t in NAMED_TABLES],
                             ids=[t[0] for t in NAMED_TABLES])
    def test_faces_round_trip(self, make):
        t = make()
        assert_same_table(FaceWeightTable(t.kind, t.dim, zip(t.faces, t.weights)), t)

    def test_builders_make_no_face_objects(self, face_constructions):
        made = face_constructions
        tables = [riffle_face_weights(12), tsetlin_face_weights(normalize(np.ones(1448))),
                  ehrenfest_face_weights(1024), graph_coloring_face_weights(CYCLE7)]
        assert made == []
        for t in tables:
            t.entries_matrix()
        assert made == []
        assert len(tables[3].faces) == tables[3].m and len(made) == tables[3].m

    def test_weight_of_builds_only_its_argument(self, face_constructions):
        table = riffle_face_weights(12)
        one_block = BlockOrderedSetPartition([range(1, 13)])
        assert table.weight_of(one_block) == 2 * 0.5 ** 12
        assert face_constructions == ["BlockOrderedSetPartition"]

    @pytest.mark.parametrize("make", [lambda: riffle_face_weights(4),
                                      lambda: ehrenfest_face_weights(3)],
                             ids=["riffle4", "ehrenfest3"])
    def test_weight_of_matches_listing(self, make):
        t = make()
        for face, w in zip(t.faces, t.weights):
            assert t.weight_of(face) == w
        chamber = (SignVector((1, -1, 1)) if t.kind == "boolean"
                   else BlockOrderedSetPartition([{2}, {1}, {3}, {4}]))
        assert t.weight_of(chamber) == 0.0

    @pytest.mark.parametrize("face", [
        SignVector((1, 0, 0, 0)), BlockOrderedSetPartition([{1, 2, 3}]), "1,2/3,4", None,
    ], ids=["other_kind", "other_dimension", "string", "none"])
    def test_weight_of_non_member(self, face):
        assert riffle_face_weights(4).weight_of(face) == 0.0

    def test_weight_of_plain_sequence(self):
        boolean = FaceWeightTable("boolean", 2, {(1, 0): 0.5, (0, 1): 0.5})
        assert boolean.weight_of((1, 0)) == boolean.weight_of(SignVector((1, 0))) == 0.5
        braid = FaceWeightTable("braid", 3, {((1,), (2, 3)): 0.25, ((2, 3), (1,)): 0.75})
        assert braid.weight_of([[1], [2, 3]]) == 0.25
        assert braid.weight_of([[2, 3], [1]]) == 0.75

    def test_rows_are_read_only(self):
        t = riffle_face_weights(3)
        assert not t.entries_matrix().flags.writeable and not t.weights.flags.writeable

    def test_merge_sums_in_input_order(self):
        # (0.1 + 0.2) + 0.3 and 0.1 + (0.2 + 0.3) differ in the last bit
        f, g = SignVector((1, 0)), SignVector((0, 1))
        w = [0.1, 0.2, 0.3]
        t = FaceWeightTable("boolean", 2, [(f, w[0]), (g, 0.4), (f, w[1]), (f, w[2])])
        assert t.weights[1] == (0.0 + w[0] + w[1]) + w[2]
        assert t.weights[0] == 0.4 and t.faces == (g, f)

    @pytest.mark.parametrize("make", [
        lambda: riffle_face_weights(6),
        lambda: tsetlin_face_weights(normalize(_tsetlin_weights(7))),
        lambda: ehrenfest_face_weights(5),
        lambda: graph_coloring_face_weights(CYCLE7),
    ], ids=["riffle", "tsetlin", "ehrenfest", "coloring"])
    def test_walk_equals_scalar_projections(self, make):
        table = make()
        boolean = table.kind == "boolean"
        start = SignVector([1] * table.dim) if boolean else Permutation.identity(table.dim)
        faces, cum = table.faces, np.cumsum(table.weights)
        chain, rng, oracle_rng = ChamberChain(table, start), RngStream(31), RngStream(31)
        current = start
        for _ in range(200):
            idx = min(int(np.searchsorted(cum, oracle_rng.random(), side="right")), table.m - 1)
            current = (project_boolean if boolean else project_braid)(current, faces[idx])
            assert walk_step(chain, rng) == current


def _tsetlin4_kernel():
    return transition_matrix(tsetlin_face_weights(normalize([1.0, 2.0, 3.0, 4.0])))


class TestInputChecks:
    @pytest.mark.parametrize("call, error, match", [
        (lambda: graph_coloring_face_weights([(0, 1), (1, 2)]), PreconditionError, "1-based"),
        (lambda: enumerate_chambers("boolean", 0), PreconditionError, "at least 1"),
        (lambda: ChamberChain(ehrenfest_face_weights(3), (1, 0, 1)), PreconditionError,
         "chamber"),
        (lambda: ChamberChain(riffle_face_weights(3), (1, 2)), PreconditionError, "size"),
        (lambda: stationary_exact(_tsetlin4_kernel(), tol=1e-300), ToleranceError, "residual"),
        (lambda: stationary_exact(_tsetlin4_kernel(), tol=0.0), PreconditionError, "tol"),
        (lambda: stationary_exact(_tsetlin4_kernel(), tol=-1.0), PreconditionError, "tol"),
        (lambda: stationary_exact(_tsetlin4_kernel(), tol=math.nan), PreconditionError, "tol"),
    ], ids=["vertex_zero", "enum_dim0", "boolean_start",
            "braid_start", "residual_tol", "tol_zero", "tol_negative", "tol_nan"])
    def test_raises(self, call, error, match):
        with pytest.raises(error, match=match):
            call()



# each entry point that takes a face or a chamber, and the other kind's objects for it;
# in dimension 1 the parent read Permutation((1,)) as the sign vector '+'
_SIGNS, _BLOCKS, _ORDER = SignVector((1, 1)), BlockOrderedSetPartition([[2], [1]]), Permutation((2, 1))
_BRAID_1 = (BlockOrderedSetPartition([[1]]), Permutation((1,)))
WRONG_KIND = [
    ("project_boolean.face", lambda x: project_boolean((1, 1), x), (_BLOCKS, _ORDER)),
    ("project_boolean.chamber", lambda x: project_boolean(x, (0,)), _BRAID_1),
    ("project_braid.face", lambda x: project_braid((1, 2), x), (_SIGNS, _ORDER)),
    ("project_braid.chamber", lambda x: project_braid(x, [[1], [2]]), (_SIGNS, _BLOCKS)),
    ("FaceWeightTable.boolean", lambda x: FaceWeightTable("boolean", 1, {x: 1.0}), _BRAID_1),
    ("FaceWeightTable.braid", lambda x: FaceWeightTable("braid", 2, {x: 1.0}), (_SIGNS, _ORDER)),
    ("ChamberChain.boolean", lambda x: ChamberChain(ehrenfest_face_weights(1), x), _BRAID_1),
    ("ChamberChain.braid", lambda x: ChamberChain(riffle_face_weights(2), x), (_SIGNS, _BLOCKS)),
    ("chamber_index", chamber_index, (_BLOCKS,)),
]


@pytest.mark.parametrize("call, obj", [(call, obj) for _, call, objs in WRONG_KIND for obj in objs],
                         ids=[f"{name}-{type(obj).__name__}"
                              for name, _, objs in WRONG_KIND for obj in objs])
def test_wrong_kind_refused(call, obj):
    with pytest.raises(PreconditionError, match=f"cannot be a {type(obj).__name__}"):
        call(obj)
