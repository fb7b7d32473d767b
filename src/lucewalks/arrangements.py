"""Random walks on the chambers of the Boolean and braid arrangements.

Chambers of the Boolean arrangement in dimension d are sign vectors in
{-1, +1}^d; faces allow zeros.  Chambers of the braid arrangement on n
labels are orderings (permutations in one-line form, read top to bottom);
faces are block-ordered set partitions.  Projecting a chamber onto a face
overrides the coordinates the face pins down and keeps the chamber's
relative structure elsewhere:

    boolean:  output_i = face_i if face_i != 0 else chamber_i
    braid:    list the face's blocks in order, each block's labels in the
              relative order they held in the chamber

A walk step draws a face F with probability w_F and replaces the current
chamber by its projection onto F.  When the positive-weight faces separate
the chambers, the walk has a unique stationary law, and an exact stationary
draw is obtained by pulling all positive faces out of an urn without
replacement (proportional to weight): the draw is the product F1 F2 ... Fm
in urn order, which for separating faces is already a chamber.  Single-use
moves (move-to-front, inverse riffle, coordinate flips, edge 2-coloring) are
provided as prebuilt face weight tables.
"""

import itertools
import math

import numpy as np

from . import kernels
from .core import (Permutation, _check_tol, as_permutation, as_weight_vector,
                   permutation_rank_many)
from .exceptions import PreconditionError, ToleranceError

__all__ = [
    "SignVector",
    "BlockOrderedSetPartition",
    "FaceWeightTable",
    "ChamberChain",
    "project_boolean",
    "project_braid",
    "walk_step",
    "enumerate_chambers",
    "chamber_index",
    "transition_matrix",
    "is_separating",
    "stationary_exact",
    "brown_diaconis_sample",
    "brown_diaconis_sample_many",
    "tsetlin_face_weights",
    "riffle_face_weights",
    "ehrenfest_face_weights",
    "graph_coloring_face_weights",
]

WEIGHT_SUM_TOL = 1e-12
BOOLEAN_ENUM_MAX = 15   # 2^15 chambers
BRAID_ENUM_MAX = 8      # 8! chambers
KERNEL_NNZ_MAX = 1 << 26  # stored entries of a sparse kernel (768 MiB of CSR)
TABLE_ENTRIES_MAX = 1 << 21  # faces x dim of a Tsetlin, Ehrenfest or coloring table

_SIGN_CHARS = {1: "+", -1: "-", 0: "0"}
_CHAR_SIGNS = {v: k for k, v in _SIGN_CHARS.items()}


class SignVector:
    """A face of the Boolean arrangement: entries over {-1, 0, +1}.

    Chambers are exactly the sign vectors with no zero entry.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        t = tuple(int(v) for v in entries)
        if not t:
            raise PreconditionError("sign vector needs at least one entry")
        if any(v not in (-1, 0, 1) for v in t):
            raise PreconditionError("entries must lie in {-1, 0, +1}")
        self.entries = t

    @classmethod
    def from_string(cls, s):
        """Parse a compact '+-0' string."""
        try:
            return cls(_CHAR_SIGNS[ch] for ch in s)
        except KeyError:
            raise PreconditionError(f"bad sign character in {s!r}") from None

    @property
    def d(self):
        return len(self.entries)

    @property
    def is_chamber(self):
        return all(v != 0 for v in self.entries)

    def to_array(self):
        return np.array(self.entries, dtype=np.int8)

    def to_string(self):
        return "".join(_SIGN_CHARS[v] for v in self.entries)

    def __eq__(self, other):
        if not isinstance(other, SignVector):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"SignVector('{self.to_string()}')"


class BlockOrderedSetPartition:
    """A face of the braid arrangement: an ordered partition of {1..n}.

    Blocks are listed top block first; chambers are the partitions into
    singletons (equivalently, orderings).
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        bs = tuple(frozenset(int(x) for x in b) for b in blocks)
        if not bs or any(not b for b in bs):
            raise PreconditionError("blocks must be nonempty")
        n = sum(len(b) for b in bs)
        seen = set().union(*bs)
        if len(seen) != n or seen != set(range(1, n + 1)):
            raise PreconditionError("blocks must be disjoint with union {1..n}")
        self.blocks = bs

    @classmethod
    def from_string(cls, s):
        """Parse '1,3/2/4,5' (blocks slash-separated, labels comma-separated)."""
        return cls([part.split(",") for part in s.split("/")])

    @property
    def n(self):
        return sum(len(b) for b in self.blocks)

    @property
    def is_chamber(self):
        return all(len(b) == 1 for b in self.blocks)

    def block_ids(self):
        """(n,) int64 array: entry lab-1 is the 0-based block index of lab."""
        ids = np.empty(self.n, dtype=np.int64)
        for b, block in enumerate(self.blocks):
            for lab in block:
                ids[lab - 1] = b
        return ids

    def to_string(self):
        return "/".join(",".join(str(x) for x in sorted(b)) for b in self.blocks)

    def __eq__(self, other):
        if not isinstance(other, BlockOrderedSetPartition):
            return NotImplemented
        return self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return f"BlockOrderedSetPartition('{self.to_string()}')"


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def project_boolean(c, f):
    """Project chamber ``c`` onto face ``f``: f's entry wins where nonzero."""
    if not isinstance(c, SignVector):
        c = SignVector(c)
    if not isinstance(f, SignVector):
        f = SignVector(f)
    if c.d != f.d:
        raise PreconditionError(f"dimension mismatch: {c.d} vs {f.d}")
    if not c.is_chamber:
        raise PreconditionError("c must be a chamber (no zero entries)")
    return _project_row("boolean", c, f.entries)


def project_braid(c, f):
    """Project ordering ``c`` onto face ``f``.

    Lists f's blocks in order; within each block, labels keep the relative
    order they held in c.
    """
    c = as_permutation(c)
    if not isinstance(f, BlockOrderedSetPartition):
        f = BlockOrderedSetPartition(f)
    if c.n != f.n:
        raise PreconditionError(f"size mismatch: {c.n} vs {f.n}")
    return _project_row("braid", c, f.block_ids().tolist())


def _project_row(kind, chamber, row):
    """Project a checked chamber onto a face given as a list of signs or block ids."""
    if kind == "boolean":
        return SignVector(fv if fv != 0 else cv for fv, cv in zip(row, chamber.entries))
    return Permutation(sorted(chamber.mapping, key=lambda lab: row[lab - 1]))


# ---------------------------------------------------------------------------
# face weight tables and walks
# ---------------------------------------------------------------------------

class FaceWeightTable:
    """A probability distribution over faces of one arrangement.

    ``pairs`` may be a dict or an iterable of (face, weight); duplicate
    faces merge by summing their weights (map semantics).  Zero-weight
    faces are dropped: they are never drawn by the walk and the urn
    sampler's without-replacement rule is undefined for them.

    The table stores one row per face, ``entries_matrix()``: int8 signs for
    the boolean kind, int64 top-down block ids for the braid kind.  Rows are
    kept in lexicographic order, so identically-specified tables behave
    identically regardless of construction order.  ``faces`` builds the
    face objects from the rows on each call.
    """

    __slots__ = ("kind", "dim", "weights", "_entries")

    def __init__(self, kind, dim, pairs):
        if kind not in ("boolean", "braid"):
            raise PreconditionError("kind must be 'boolean' or 'braid'")
        dim = int(dim)
        if dim < 1:
            raise PreconditionError("dimension must be at least 1")
        face_cls = SignVector if kind == "boolean" else BlockOrderedSetPartition
        rows, weights = [], []
        for face, weight in pairs.items() if isinstance(pairs, dict) else pairs:
            if not isinstance(face, face_cls):
                if isinstance(face, (SignVector, BlockOrderedSetPartition)):
                    raise PreconditionError(f"{kind} table cannot hold {type(face).__name__} faces")
                face = face_cls(face)
            if (face.d if kind == "boolean" else face.n) != dim:
                raise PreconditionError(f"face {face!r} has wrong dimension")
            weight = float(weight)
            if weight < 0.0 or not math.isfinite(weight):
                raise PreconditionError("face weights must be finite and nonnegative")
            rows.append(face.entries if kind == "boolean" else face.block_ids())
            weights.append(weight)
        rows = np.array(rows, dtype=np.int8 if kind == "boolean" else np.int64)
        self._set_rows(kind, dim, rows.reshape(-1, dim), np.array(weights, dtype=np.float64))

    @classmethod
    def _from_rows(cls, kind, dim, rows, weights):
        """A table from checked (m, dim) rows and their weights, listed in any order."""
        return cls.__new__(cls)._set_rows(kind, dim, rows, weights)

    def _set_rows(self, kind, dim, rows, weights):
        """Sort the rows, merge equal ones, drop zero weights; return ``self``."""
        # summed in input order from 0.0, as the weights come
        total = float(np.concatenate(([0.0], weights)).cumsum()[-1])
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise PreconditionError(f"face weights sum to {total!r}, not 1")
        order = np.lexsort(rows.T[::-1])  # stable, first column primary
        rows, weights = rows[order], weights[order]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = np.any(rows[1:] != rows[:-1], axis=1)
        merged = np.zeros(np.count_nonzero(first))
        np.add.at(merged, np.cumsum(first) - 1, weights)  # in input order within a row
        kept = merged > 0.0
        if not kept.any():
            raise PreconditionError("need at least one positive-weight face")
        self.kind, self.dim = kind, dim
        self._entries = rows[first][kept]
        self._entries.flags.writeable = False
        self.weights = merged[kept]
        self.weights.flags.writeable = False
        return self

    @property
    def m(self):
        return len(self.weights)

    @property
    def faces(self):
        """The faces of the rows, in row order, built on each call."""
        rows = self._entries.tolist()
        if self.kind == "boolean":
            return tuple(SignVector(row) for row in rows)
        return tuple(BlockOrderedSetPartition([[lab for lab, b in enumerate(row, 1) if b == k]
                                               for k in range(max(row) + 1)]) for row in rows)

    def weight_of(self, face):
        return next((float(w) for f, w in zip(self.faces, self.weights) if f == face), 0.0)

    def entries_matrix(self):
        """(m, dim) int8 sign entries, or (m, n) int64 dense block ids."""
        return self._entries

    def __repr__(self):
        return f"FaceWeightTable({self.kind}, dim={self.dim}, m={self.m})"


class ChamberChain:
    """A face-weighted walk together with its current chamber."""

    __slots__ = ("face_table", "current")

    def __init__(self, face_table, start):
        self.face_table = face_table
        self.current = _check_chamber(face_table.kind, face_table.dim, start)


def _check_chamber(kind, dim, chamber):
    if kind == "boolean":
        if not isinstance(chamber, SignVector):
            chamber = SignVector(chamber)
        if chamber.d != dim or not chamber.is_chamber:
            raise PreconditionError("start must be a chamber of the arrangement")
        return chamber
    chamber = as_permutation(chamber)
    if chamber.n != dim:
        raise PreconditionError("start must be an ordering of the right size")
    return chamber


def _draw_face_index(table, rng):
    cum = np.cumsum(table.weights)
    idx = int(np.searchsorted(cum, rng.random(), side="right"))
    return min(idx, table.m - 1)


def walk_step(chain, rng):
    """Draw a face with probability w_F, project, advance, and return."""
    table = chain.face_table
    row = table.entries_matrix()[_draw_face_index(table, rng)].tolist()
    chain.current = _project_row(table.kind, chain.current, row)
    return chain.current


# ---------------------------------------------------------------------------
# exact machinery at enumerable scale
# ---------------------------------------------------------------------------

def _check_enum_size(kind, dim):
    if dim < 1:
        raise PreconditionError("dimension must be at least 1")
    if kind == "boolean" and dim > BOOLEAN_ENUM_MAX:
        raise PreconditionError(f"boolean enumeration capped at d={BOOLEAN_ENUM_MAX}")
    if kind == "braid" and dim > BRAID_ENUM_MAX:
        raise PreconditionError(f"braid enumeration capped at n={BRAID_ENUM_MAX}")


def enumerate_chambers(kind, dim):
    """All chambers in canonical (index) order.

    Boolean chambers are ordered with -1 before +1 lexicographically; braid
    chambers are orderings in lexicographic one-line order.
    """
    _check_enum_size(kind, dim)
    chamber = SignVector if kind == "boolean" else Permutation
    return [chamber(row) for row in _chambers_array(kind, dim).tolist()]


def chamber_index(chamber):
    """Index of a chamber in its ``enumerate_chambers`` listing."""
    if isinstance(chamber, SignVector):
        if not chamber.is_chamber:
            raise PreconditionError("not a chamber")
        return int(_boolean_rank_many(np.array(chamber.entries)))
    chamber = as_permutation(chamber)
    return int(permutation_rank_many(np.array(chamber.mapping))[0])


def _boolean_rank_many(signs):
    """Canonical index of each Boolean chamber row (entries +-1, last axis)."""
    return (signs > 0).astype(np.int64) @ (1 << np.arange(signs.shape[-1] - 1, -1, -1))


def _chambers_array(kind, dim):
    if kind == "boolean":
        bits = ((np.arange(1 << dim)[:, None] >> np.arange(dim - 1, -1, -1)) & 1)
        return (2 * bits - 1).astype(np.int8)
    return np.array(list(itertools.permutations(range(1, dim + 1))), dtype=np.int64)


def transition_matrix(table):
    """Sparse one-step kernel K[c, c'] over all chambers in canonical order.

    Returns a ``scipy.sparse.csr_array``.  Row c holds one entry per face F,
    w_F at the rank of c projected onto F, with coinciding projections
    summed.  Raises ``PreconditionError`` before allocating when the
    chambers x faces entries would exceed ``KERNEL_NNZ_MAX``.
    """
    import scipy.sparse as sp

    _check_enum_size(table.kind, table.dim)
    n_ch = 1 << table.dim if table.kind == "boolean" else math.factorial(table.dim)
    nnz = n_ch * table.m
    if nnz > KERNEL_NNZ_MAX:
        raise PreconditionError(
            f"kernel needs {n_ch} chambers x {table.m} faces = {nnz} entries, "
            f"over the cap of {KERNEL_NNZ_MAX}")
    cols = np.empty((n_ch, table.m), dtype=np.int32)
    ent = table.entries_matrix()
    chambers = _chambers_array(table.kind, table.dim)
    if table.kind == "boolean":
        project, rank = kernels.project_signs, _boolean_rank_many
    else:
        # Lehmer ranks only compare labels, so 0-based rows rank like 1-based ones
        chambers = chambers - 1
        project, rank = kernels.project_orders, permutation_rank_many
    for f in range(table.m):
        cols[:, f] = rank(project(chambers, ent[f]))
    data = np.tile(table.weights, n_ch)
    indptr = table.m * np.arange(n_ch + 1, dtype=np.int32)
    k_mat = sp.csr_array((data, cols.ravel(), indptr), shape=(n_ch, n_ch))
    k_mat.sum_duplicates()
    return k_mat


def is_separating(table):
    """Whether the positive-weight faces leave no hyperplane uncrossed.

    Boolean kind: every coordinate is pinned by some face.  Braid kind:
    every label pair is split into different blocks by some face, that is,
    the labels' columns of block ids are all distinct.
    """
    ent = table.entries_matrix()
    if table.kind == "boolean":
        return bool(np.all(np.any(ent != 0, axis=0)))
    srt = ent[:, np.lexsort(ent)]  # equal columns end up adjacent
    return bool(np.all(np.any(srt[:, 1:] != srt[:, :-1], axis=0)))


def stationary_exact(matrix, tol=1e-10):
    """The unique stationary distribution of a row-stochastic kernel.

    Accepts a dense array or any scipy sparse matrix.  Uniqueness is decided
    exactly from the support graph of K: the law is unique when the graph
    has exactly one closed strongly connected class, and ``ToleranceError``
    is raised otherwise (a non-separating face table, for instance).  pi is
    then the solution of pi (K - I) = 0 with the normalization sum(pi) = 1
    in place of the last equation, found by BiCGSTAB from the uniform
    start.  The result must pass max|pi K - pi| <= tol.
    """
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components
    from scipy.sparse.linalg import LinearOperator, bicgstab

    _check_tol(tol)
    shape = np.shape(matrix)
    if len(shape) != 2 or shape[0] != shape[1] or shape[0] == 0:
        raise PreconditionError("matrix must be square and nonempty")
    k_mat = sp.csr_array(matrix, dtype=np.float64, copy=True)
    k_mat.sum_duplicates()
    k_mat.eliminate_zeros()
    n_ch = shape[0]
    if not np.all(np.isfinite(k_mat.data)) or np.any(k_mat.data < 0.0):
        raise PreconditionError("matrix entries must be finite and nonnegative")
    if np.abs(k_mat.sum(axis=1) - 1.0).max() > 1e-9:
        raise PreconditionError("matrix rows must sum to 1")
    n_comp, labels = connected_components(k_mat, directed=True, connection="strong")
    # a class is closed when no edge leaves it
    source = np.repeat(labels, np.diff(k_mat.indptr))
    n_closed = n_comp - np.unique(source[source != labels[k_mat.indices]]).size
    if n_closed != 1:
        raise ToleranceError(
            f"stationary distribution is not unique: {n_closed} closed classes "
            "(non-separating weights)")

    def bordered(x):
        y = x @ k_mat - x
        y[-1] = x.sum()
        return y

    b = np.zeros(n_ch)
    b[-1] = 1.0
    # stop near machine precision whatever tol is: the residual check below is the test
    pi, _ = bicgstab(LinearOperator((n_ch, n_ch), matvec=bordered, dtype=np.float64),
                     b, x0=np.full(n_ch, 1.0 / n_ch), rtol=1e-14, atol=0.0)
    if pi.min() < -1e-12:
        raise ToleranceError(f"stationary solve produced entry {pi.min():g} < -1e-12")
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    residual = float(np.abs(pi @ k_mat - pi).max())
    if residual > tol:
        raise ToleranceError(f"stationary residual {residual:g} exceeds {tol:g}")
    return pi


# ---------------------------------------------------------------------------
# exact stationary sampling (urn of faces, product computed forward)
# ---------------------------------------------------------------------------

def brown_diaconis_sample_many(table, size, rng):
    """Exact stationary draws via the without-replacement face urn.

    Each sample pulls all positive-weight faces out of an urn, one at a
    time with probability proportional to remaining weight; the draw is the
    product F1 F2 ... Fm in urn order.  For separating weights that product
    is a chamber (faces form a left-regular band), so no start chamber
    enters, and its law is the stationary distribution.

    Returns a (size, dim) array: sign entries for the boolean kind, 1-based
    one-line orderings for the braid kind.
    """
    if size < 1:
        raise PreconditionError("size must be at least 1")
    if not is_separating(table):
        raise PreconditionError("face weights are not separating")
    orders = kernels.weighted_order_many(table.weights, rng.random((size, table.m)))
    if table.kind == "boolean":
        return kernels.apply_boolean_reverse(table.entries_matrix(), orders)
    return kernels.apply_braid_reverse(table.entries_matrix(), orders) + 1


def brown_diaconis_sample(table, rng):
    """One exact stationary chamber (see :func:`brown_diaconis_sample_many`)."""
    row = brown_diaconis_sample_many(table, 1, rng)[0]
    if table.kind == "boolean":
        return SignVector(row)
    return Permutation(row)


# ---------------------------------------------------------------------------
# named face weight tables
# ---------------------------------------------------------------------------

def _check_table_size(m, dim):
    if m * dim > TABLE_ENTRIES_MAX:
        raise PreconditionError(
            f"face table needs {m} faces x {dim} = {m * dim} entries, "
            f"over the cap of {TABLE_ENTRIES_MAX}")


def tsetlin_face_weights(w):
    """Move-to-front moves: weight theta_i on the face {i} / rest.

    The walk pulls label i to the top with probability theta_i; its
    stationary law is the sequential weighted-draw pmf of the same weights.
    The weights must sum to 1, within the table's ``WEIGHT_SUM_TOL``, and
    n * n must not pass ``TABLE_ENTRIES_MAX`` (n <= 1448).
    """
    w = as_weight_vector(w)
    n = w.n
    _check_table_size(n, n)
    rows = np.ones((n, n), dtype=np.int64)
    np.fill_diagonal(rows, 0)  # row i - 1: label i in block 0, the rest in block 1
    return FaceWeightTable._from_rows("braid", n, rows, w.weights)


def riffle_face_weights(n):
    """Inverse-riffle moves: weight 2^-n on each face S / complement.

    S ranges over all subsets; the empty and full subsets both denote the
    one-block face (an identity move), which therefore carries their merged
    weight 2^(1-n).
    """
    if n < 1:
        raise PreconditionError("n must be at least 1")
    if n > BOOLEAN_ENUM_MAX:
        raise PreconditionError(f"riffle table capped at n={BOOLEAN_ENUM_MAX}")
    # subset S as a bit mask: labels in S in block 0, the rest in block 1
    rows = 1 - ((np.arange(1 << n, dtype=np.int64)[:, None] >> np.arange(n)) & 1)
    rows[0] = 0  # empty S: the complement is the one block
    return FaceWeightTable._from_rows("braid", n, rows, np.full(1 << n, 0.5 ** n))


def ehrenfest_face_weights(d):
    """Coordinate moves: weight 1/(2d) on each face pinning one coordinate.

    The 2d faces of length d must not pass ``TABLE_ENTRIES_MAX`` entries
    (d <= 1024).
    """
    if d < 1:
        raise PreconditionError("d must be at least 1")
    _check_table_size(2 * d, d)
    rows = np.zeros((2 * d, d), dtype=np.int8)
    rows[np.arange(2 * d), np.arange(2 * d) // 2] = np.tile([-1, 1], d)
    return FaceWeightTable._from_rows("boolean", d, rows, np.full(2 * d, 1.0 / (2 * d)))


def _check_graph(edges):
    cleaned = []
    seen = set()
    for e in edges:
        u, v = (int(x) for x in e)
        if u == v:
            raise PreconditionError(f"self loop at vertex {u}")
        if u < 1 or v < 1:
            raise PreconditionError("vertices are 1-based")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise PreconditionError(f"duplicate edge {key}")
        seen.add(key)
        cleaned.append(key)
    if not cleaned:
        raise PreconditionError("edge list must be nonempty")
    n = max(max(e) for e in cleaned)
    _check_table_size(2 * len(cleaned), n)  # before any work of size n
    # connectivity via union-find
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in cleaned:
        parent[find(u)] = find(v)
    if len({find(v) for v in range(1, n + 1)}) != 1:
        raise PreconditionError("graph must be connected")
    return cleaned, n


def graph_coloring_face_weights(edges):
    """Edge 2-coloring moves as a boolean table over vertex colorings.

    Each move picks an edge uniformly and paints both endpoints a common
    uniform sign, so each (edge, sign) face carries weight 1/(2|E|).  The
    graph must be connected, so its vertices are 1..(largest endpoint).  The
    walk is ``walk_step`` on a ``ChamberChain`` over this table.  Its
    2|E| faces of length n must not pass ``TABLE_ENTRIES_MAX`` entries.
    """
    cleaned, n = _check_graph(edges)
    m = 2 * len(cleaned)
    rows = np.zeros((m, n), dtype=np.int8)
    ends = np.repeat(np.array(cleaned) - 1, 2, axis=0)  # each edge painted -1, then +1
    rows[np.arange(m)[:, None], ends] = np.tile([-1, 1], len(cleaned))[:, None]
    return FaceWeightTable._from_rows("boolean", n, rows, np.full(m, 1.0 / m))
