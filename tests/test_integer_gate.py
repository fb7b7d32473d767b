"""Every count, size, dimension, label and face entry passes one integer gate.

An int, a numpy integer or an integral float is accepted; a bool, any other
float or a string raises ``PreconditionError``.  Each row of the table puts
the value under test into one integer argument of a public call, where
``good`` is a valid value, so ``float(good)`` must give what ``good`` gives.
"""

import numpy as np
import pytest

from lucewalks import (
    BlockOrderedSetPartition,
    FaceWeightTable,
    Permutation,
    PreconditionError,
    RngStream,
    SignVector,
    all_permutations,
    brown_diaconis_sample_many,
    chamber_index,
    collision_lambda,
    d_inf_bound,
    d_inf_exact,
    distance_report,
    ehrenfest_face_weights,
    elementary_symmetric,
    enumerate_chambers,
    finite_n_bottom_pmf,
    graph_coloring_face_weights,
    limit_bottom_pmf,
    limit_bottom_pmf_mc,
    linear_weights,
    luce_pmf,
    permutation_rank_many,
    prefix_prob_p,
    prefix_prob_q,
    project_braid,
    restrict,
    riffle_face_weights,
    sample_exponential_many,
    sample_spacings_many,
    sample_urn_many,
    second_card_marginal,
    sukhatme_last_card_table,
    sukhatme_weights,
    tv_exact,
    tv_uniform_exact,
)

W3 = [1.0, 2.0, 3.0]
W4 = [0.4, 0.3, 0.2, 0.1]

# (id, call of the value under test, a valid value)
GATED = [
    ("rng.seed", lambda v: RngStream(v).random(3), 2),
    ("rng.split", lambda v: [c.random(2) for c in RngStream(1).split(v)], 2),
    ("rng.random_size", lambda v: RngStream(1).random(v), 2),
    ("rng.random_shape", lambda v: RngStream(1).random((2, v)), 2),
    ("rng.integers_size", lambda v: RngStream(1).integers(0, 5, size=v), 2),
    ("rng.integers_shape", lambda v: RngStream(1).integers(0, 5, size=[v, 2]), 2),
    ("core.identity", lambda v: Permutation.identity(v), 2),
    ("core.position", lambda v: Permutation((2, 1, 3))(v), 2),
    ("core.permutation_entry", lambda v: Permutation((v, 1, 3)), 2),
    ("core.sukhatme_weights", lambda v: sukhatme_weights(v), 2),
    ("core.restrict", lambda v: restrict(W3, (v,)), 2),
    ("core.luce_pmf", lambda v: luce_pmf(W3, (v, 1, 3)), 2),
    ("core.urn_size", lambda v: sample_urn_many(W3, v, RngStream(0)), 2),
    ("core.exponential_size", lambda v: sample_exponential_many(W3, v, RngStream(0)), 2),
    ("core.spacings_n", lambda v: sample_spacings_many(v, 3, RngStream(0)), 2),
    ("core.spacings_size", lambda v: sample_spacings_many(3, v, RngStream(0)), 2),
    ("core.all_permutations", lambda v: all_permutations(v), 2),
    ("core.rank_entry", lambda v: permutation_rank_many([[v, 1, 3]]), 2),
    ("topk.prefix_p", lambda v: prefix_prob_p(W4, (v, 1)), 2),
    ("topk.prefix_q", lambda v: prefix_prob_q(W4, (v,)), 2),
    ("topk.second_card", lambda v: second_card_marginal(W4, v), 2),
    ("topk.d_inf_exact", lambda v: d_inf_exact(W4, v), 2),
    ("topk.d_inf_bound", lambda v: d_inf_bound(W4, v), 2),
    ("topk.elementary", lambda v: elementary_symmetric(W4, v), 2),
    ("topk.tv_exact", lambda v: tv_exact(W4, v), 2),
    ("topk.tv_uniform_n", lambda v: tv_uniform_exact(v, 2), 2),
    ("topk.tv_uniform_k", lambda v: tv_uniform_exact(4, v), 2),
    ("topk.collision_lambda", lambda v: collision_lambda(W4, v), 2),
    ("topk.distance_report", lambda v: distance_report(W4, v), 2),
    ("bottomk.theta", lambda v: linear_weights().theta(v), 2),
    ("bottomk.thetas", lambda v: linear_weights().thetas(v), 2),
    ("bottomk.limit_label", lambda v: limit_bottom_pmf(linear_weights(), (v,)), 2),
    ("bottomk.finite_label", lambda v: finite_n_bottom_pmf(W3, (v,)), 2),
    ("bottomk.last_card_table", lambda v: sukhatme_last_card_table(v), 2),
    ("bottomk.mc_label", lambda v: limit_bottom_pmf_mc(linear_weights(), (v,), 4,
                                                       RngStream(0)), 2),
    ("bottomk.mc_size", lambda v: limit_bottom_pmf_mc(linear_weights(), (1,), v,
                                                      RngStream(0)), 2),
    ("arrangements.sign_entry", lambda v: SignVector((-1, v)), 1),
    ("arrangements.block_label", lambda v: BlockOrderedSetPartition([[v, 1], [3]]), 2),
    ("arrangements.table_dim", lambda v: FaceWeightTable("boolean", v, {(1, 0): 1.0}), 2),
    ("arrangements.enumerate_boolean", lambda v: enumerate_chambers("boolean", v), 2),
    ("arrangements.enumerate_braid", lambda v: enumerate_chambers("braid", v), 2),
    ("arrangements.chamber_index", lambda v: chamber_index((v, 1, 3)), 2),
    ("arrangements.riffle", lambda v: riffle_face_weights(v), 2),
    ("arrangements.ehrenfest", lambda v: ehrenfest_face_weights(v), 2),
    ("arrangements.coloring", lambda v: graph_coloring_face_weights([(1, v), (v, 3)]), 2),
    ("arrangements.bd_size", lambda v: brown_diaconis_sample_many(ehrenfest_face_weights(2),
                                                                  v, RngStream(0)), 2),
]


# (id, call) of an argument that must be a sequence, given a bare int or None
NOT_SEQUENCES = [
    ("sign_vector", lambda: SignVector(5)),
    ("permutation", lambda: Permutation(3)),
    ("chamber_index", lambda: chamber_index(5)),
    ("project_braid", lambda: project_braid((1, 2), (1, 2))),
    ("braid_table", lambda: FaceWeightTable("braid", 2, {(1, 2): 1.0})),
    ("restrict", lambda: restrict([1, 2], 3)),
    ("luce_pmf", lambda: luce_pmf([1, 2], 5)),
    ("block_partition", lambda: BlockOrderedSetPartition(5)),
    ("project_braid_face", lambda: project_braid((1, 2), None)),
    ("braid_table_face", lambda: FaceWeightTable("braid", 2, {5: 1.0})),
]


def _plain(x):
    """A value comparable with ``==``: arrays, tables and sequences as nested lists."""
    if isinstance(x, FaceWeightTable):
        return [x.kind, x.dim, x.entries_matrix().tolist(), x.weights.tolist()]
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


@pytest.mark.parametrize("call, good", [row[1:] for row in GATED], ids=[row[0] for row in GATED])
@pytest.mark.parametrize("bad", [1.9, True, "3"], ids=["fraction", "bool", "string"])
def test_refused(call, good, bad):
    with pytest.raises(PreconditionError):
        call(bad)


@pytest.mark.parametrize("call, good", [row[1:] for row in GATED], ids=[row[0] for row in GATED])
def test_integral_float_accepted(call, good):
    assert _plain(call(float(good))) == _plain(call(good))
    assert _plain(call(np.int64(good))) == _plain(call(good))


@pytest.mark.parametrize("call", [row[1] for row in NOT_SEQUENCES],
                         ids=[row[0] for row in NOT_SEQUENCES])
def test_bare_int_refused(call):
    with pytest.raises(PreconditionError, match="is not a sequence"):
        call()


@pytest.mark.parametrize("size", [-1, (2, -1)], ids=["count", "shape"])
def test_negative_rng_size_refused(size):
    with pytest.raises(PreconditionError, match="at least 0"):
        RngStream(1).random(size)
    with pytest.raises(PreconditionError, match="at least 0"):
        RngStream(1).integers(0, 5, size=size)


def test_unknown_kind_refused():
    with pytest.raises(PreconditionError, match="kind"):
        enumerate_chambers("foo", 3)


def test_rank_rows_must_be_permutations():
    for rows in ([[1, 1, 3]], [[0, 1, 2]], [[True, False]], [["1", "2"]]):
        with pytest.raises(PreconditionError, match="permutations of 1.."):
            permutation_rank_many(rows)


def test_block_string_label_refused():
    with pytest.raises(PreconditionError, match="bad label"):
        BlockOrderedSetPartition.from_string("1,x/3")
    assert BlockOrderedSetPartition.from_string("1,3/2") == BlockOrderedSetPartition([[1, 3], [2]])
