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
from .core import Permutation, _check_tol, as_weight_vector, permutation_rank_many
from .exceptions import PreconditionError, ToleranceError, _as_int, _as_ints

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
_ENUM_MAX = {"boolean": BOOLEAN_ENUM_MAX, "braid": BRAID_ENUM_MAX}
KERNEL_NNZ_MAX = 1 << 26  # chambers x faces ranks of a kernel (256 MiB of int32)
TABLE_ENTRIES_MAX = 1 << 21  # faces x dim of a Tsetlin, Ehrenfest or coloring table

_SIGN_CHARS = {1: "+", -1: "-", 0: "0"}
_CHAR_SIGNS = {v: k for k, v in _SIGN_CHARS.items()}


class SignVector:
    """A face of the Boolean arrangement: entries over {-1, 0, +1}.

    Chambers are exactly the sign vectors with no zero entry.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        t = _as_ints(entries, "sign entry", -1, 1)
        if not t:
            raise PreconditionError("sign vector needs at least one entry")
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
        bs = tuple(frozenset(_as_ints(b, "label")) for b in blocks)
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
        try:
            blocks = [[int(t) for t in part.split(",")] for part in s.split("/")]
        except ValueError:
            raise PreconditionError(f"bad label in {s!r}") from None
        return cls(blocks)

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
# faces and chambers of a kind
# ---------------------------------------------------------------------------

_CLASSES = {"face": {"boolean": SignVector, "braid": BlockOrderedSetPartition},
            "chamber": {"boolean": SignVector, "braid": Permutation}}


def _as_face(kind, face, dim=None):
    """``face`` as a face object of ``kind``, of size ``dim`` when given."""
    return _as_object(kind, "face", face, dim)


def _check_chamber(kind, chamber, dim=None):
    """``chamber`` as a chamber object of ``kind``, of size ``dim`` when given."""
    chamber = _as_object(kind, "chamber", chamber, dim)
    if kind == "boolean" and not chamber.is_chamber:
        raise PreconditionError(f"boolean chamber {chamber!r} has a zero entry")
    return chamber


def _as_object(kind, role, obj, dim):
    """``obj`` as the ``role`` class of ``kind``; the other kind's objects raise."""
    cls = _CLASSES[role][kind]
    if not isinstance(obj, cls):
        if isinstance(obj, (SignVector, BlockOrderedSetPartition, Permutation)):
            raise PreconditionError(f"a {kind} {role} cannot be a {type(obj).__name__}")
        obj = cls(obj)
    size = obj.d if kind == "boolean" else obj.n
    if dim is not None and size != dim:
        raise PreconditionError(f"{kind} {role} {obj!r} has size {size}, not {dim}")
    return obj


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def project_boolean(c, f):
    """Project chamber ``c`` onto face ``f``: f's entry wins where nonzero."""
    f = _as_face("boolean", f)
    return _project_row("boolean", _check_chamber("boolean", c, f.d), f.entries)


def project_braid(c, f):
    """Project ordering ``c`` onto face ``f``.

    Lists f's blocks in order; within each block, labels keep the relative
    order they held in c.
    """
    f = _as_face("braid", f)
    return _project_row("braid", _check_chamber("braid", c, f.n), f.block_ids().tolist())


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

    __slots__ = ("kind", "dim", "weights", "_entries", "_cumulative")

    def __init__(self, kind, dim, pairs):
        _check_kind(kind)
        dim = _as_int(dim, "dimension", 1)
        rows, weights = [], []
        for face, weight in pairs.items() if isinstance(pairs, dict) else pairs:
            face = _as_face(kind, face, dim)
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
        self._entries, self.weights = rows[first][kept], merged[kept]
        self._cumulative = np.cumsum(self.weights)  # searched by each walk step
        for a in (self._entries, self.weights, self._cumulative):
            a.flags.writeable = False
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
        """The weight of ``face``: 0.0 when the table holds no such face."""
        if not isinstance(face, _CLASSES["face"][self.kind]):
            return 0.0
        row = np.asarray(face.entries if self.kind == "boolean" else face.block_ids())
        hit = self.weights[(self._entries == row).all(axis=1)] if row.size == self.dim else ()
        return float(hit[0]) if len(hit) else 0.0

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
        self.current = _check_chamber(face_table.kind, start, face_table.dim)


def _draw_face_index(table, rng):
    idx = int(np.searchsorted(table._cumulative, rng.random(), side="right"))
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

def _check_kind(kind):
    if kind not in _ENUM_MAX:
        raise PreconditionError("kind must be 'boolean' or 'braid'")


def _check_enum_size(kind, dim):
    """``dim`` as an int, at least 1 and at most the enumeration cap of ``kind``."""
    _check_kind(kind)
    return _as_int(dim, f"{kind} enumeration dimension", 1, _ENUM_MAX[kind])


def enumerate_chambers(kind, dim):
    """All chambers in canonical (index) order.

    Boolean chambers are ordered with -1 before +1 lexicographically; braid
    chambers are orderings in lexicographic one-line order.
    """
    dim, chamber = _check_enum_size(kind, dim), _CLASSES["chamber"][kind]
    return [chamber(row) for row in _chambers_array(kind, dim).tolist()]


def chamber_index(chamber):
    """Index of a chamber in its ``enumerate_chambers`` listing."""
    if isinstance(chamber, SignVector):
        return int(_chamber_keys("boolean", _check_chamber("boolean", chamber).to_array()))
    return int(permutation_rank_many(_check_chamber("braid", chamber).mapping)[0])


def _chamber_keys(kind, rows):
    """Integer keys of chamber rows (last axis) that sort as the ``enumerate_chambers`` listing.

    Sign rows read as bits, so a key is the chamber's index; 0-based orders of
    n labels read as base-n digits.
    """
    d = rows.shape[-1]
    digits, base = (rows > 0, 2) if kind == "boolean" else (rows, d)
    return digits.astype(np.int64) @ base ** np.arange(d - 1, -1, -1, dtype=np.int64)


def _chambers_array(kind, dim):
    if kind == "boolean":
        bits = ((np.arange(1 << dim)[:, None] >> np.arange(dim - 1, -1, -1)) & 1)
        return (2 * bits - 1).astype(np.int8)
    return np.array(list(itertools.permutations(range(1, dim + 1))), dtype=np.int64)


class _FaceKernel:
    """A walk's kernel K as face ranks: ``ranks[f, c]`` indexes chamber c projected onto face f."""

    __slots__ = ("table", "ranks", "shape", "nbytes")
    __array_ufunc__ = None  # ndarray @ kernel defers to __rmatmul__

    def __init__(self, table, ranks):
        self.table, self.ranks, self.shape = table, ranks, (ranks.shape[1],) * 2
        self.nbytes = ranks.nbytes + table.weights.nbytes

    def __rmatmul__(self, pi):
        return sum(np.bincount(row, w * pi, self.shape[0])
                   for w, row in zip(self.table.weights, self.ranks))


def transition_matrix(table):
    """The one-step kernel K over all chambers in canonical order, for ``stationary_exact``.

    K holds one int32 row of projected chamber ranks per face and the table's weights, so
    ``pi @ K`` never builds the N x N matrix; ``K.nbytes`` counts both.  Raises
    ``PreconditionError`` before allocating when the ranks would exceed ``KERNEL_NNZ_MAX``.
    """
    _check_enum_size(table.kind, table.dim)
    n_ch = 1 << table.dim if table.kind == "boolean" else math.factorial(table.dim)
    nnz = n_ch * table.m
    if nnz > KERNEL_NNZ_MAX:
        raise PreconditionError(
            f"kernel needs {n_ch} chambers x {table.m} faces = {nnz} entries, "
            f"over the cap of {KERNEL_NNZ_MAX}")
    ranks = np.empty((table.m, n_ch), dtype=np.int32)
    ent = table.entries_matrix()
    chambers = _chambers_array(table.kind, table.dim)
    if table.kind == "boolean":
        project = kernels.project_signs
    else:
        chambers = chambers - 1  # 0-based, as project_orders and _chamber_keys read them
        project = kernels.project_orders
    listed = _chamber_keys(table.kind, chambers)  # ascending: the chambers are in index order
    for f in range(table.m):
        ranks[f] = np.searchsorted(listed, _chamber_keys(table.kind, project(chambers, ent[f])))
    return _FaceKernel(table, ranks)


def _uncrossed_hyperplane(table):
    """What no positive-weight face does to the first hyperplane none crosses, or None."""
    ent = table.entries_matrix()
    if table.kind == "boolean":
        free = np.flatnonzero(np.all(ent == 0, axis=0))
        return f"pins coordinate {free[0] + 1}" if free.size else None
    # np.lexsort(ent)'s column order in one stable sort: each label's column, last face
    # first, as one big-endian byte string, which orders as its block ids (all >= 0) do
    cols = ent[::-1].T.astype(">i8", order="C").view(f"V{8 * table.m}")[:, 0]
    lab = np.argsort(cols, kind="stable")  # equal columns end up adjacent, in label order
    del cols  # before the gather, so the table is copied once at a time
    srt = ent[:, lab]
    tied = np.flatnonzero(np.all(srt[:, 1:] == srt[:, :-1], axis=0))
    return f"splits labels {lab[tied[0]] + 1} and {lab[tied[0] + 1] + 1}" if tied.size else None


def is_separating(table):
    """Whether the positive-weight faces leave no hyperplane uncrossed.

    Some face pins each coordinate (boolean kind) or splits each label pair (braid kind).
    """
    return _uncrossed_hyperplane(table) is None


def _bicgstab(kernel, x, restarts=2):  # three runs in all at most
    """BiCGSTAB (van der Vorst, 1992) from x for pi (K - I) = 0, its last row sum(pi) = 1.

    Stops at |r| < 1e-14 or after 10 N iterations (scipy's default).  A breakdown (a zero or
    non-finite rho, <r_hat, v> or omega, or a non-finite iterate) starts a new run from the
    last finite iterate, ``restarts`` times at most; after that the iterate is returned.
    """
    def bordered(z):
        y = z @ kernel - z
        y[-1] = z.sum()
        return y

    with np.errstate(all="ignore"):
        r = -bordered(x)
        r[-1] += 1.0
        r_hat, p, v, rho_old, alpha, omega = r, 0.0, 0.0, 1.0, 1.0, 1.0
        for _ in range(10 * x.size):
            if np.linalg.norm(r) < 1e-14:
                return x
            rho = r_hat @ r
            p = r + (rho / rho_old) * (alpha / omega) * (p - omega * v)
            v = bordered(p)
            alpha = rho / (r_hat @ v)  # a zero <r_hat, v> leaves s, and so x_new, non-finite
            s = r - alpha * v
            if np.linalg.norm(s) < 1e-14:  # then rho and alpha are finite and nonzero
                return x + alpha * p
            t = bordered(s)
            omega = (t @ s) / (t @ t)
            x_new = x + alpha * p + omega * s  # non-finite when rho or omega is
            if 0.0 in (rho, omega) or not np.all(np.isfinite(x_new)):
                return _bicgstab(kernel, x, restarts - 1) if restarts else x
            x, r, rho_old = x_new, s - omega * t, rho
    return x


def stationary_exact(kernel, tol=1e-10):
    """The unique stationary law of the kernel ``transition_matrix`` returns.

    It is unique exactly when the positive-weight faces are separating (Brown and Diaconis,
    1998); ``ToleranceError`` names an uncrossed hyperplane otherwise.  pi is found by BiCGSTAB
    from the uniform start, restarted from its last finite iterate on a breakdown, and must
    pass max|pi K - pi| <= tol.
    """
    _check_tol(tol)
    if not isinstance(kernel, _FaceKernel):
        raise PreconditionError(f"need a transition_matrix kernel, not {type(kernel).__name__}")
    if (gap := _uncrossed_hyperplane(kernel.table)) is not None:
        raise ToleranceError(f"stationary distribution is not unique: no positive-weight face {gap}")
    pi = _bicgstab(kernel, np.full(kernel.shape[0], 1.0 / kernel.shape[0]))
    if pi.min() < -1e-12:
        raise ToleranceError(f"stationary solve produced entry {pi.min():g} < -1e-12")
    reached = np.zeros(kernel.shape[0], dtype=bool)
    reached[kernel.ranks] = True
    pi = np.clip(pi, 0.0, None) * reached  # no face leads into an unreached chamber: its law is 0
    pi /= pi.sum()
    residual = float(np.abs(pi @ kernel - pi).max())
    if not residual <= tol:
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
    size = _as_int(size, "size", 1)
    if (gap := _uncrossed_hyperplane(table)) is not None:
        raise PreconditionError(f"face weights are not separating: no positive-weight face {gap}")
    orders = kernels.weighted_order_many(table.weights, rng.random((size, table.m)))
    if table.kind == "boolean":
        return kernels.apply_boolean_reverse(table.entries_matrix(), orders)
    return kernels.apply_braid_reverse(table.entries_matrix(), orders) + 1


def brown_diaconis_sample(table, rng):
    """One exact stationary chamber (see :func:`brown_diaconis_sample_many`)."""
    return _CLASSES["chamber"][table.kind](brown_diaconis_sample_many(table, 1, rng)[0])


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
    n = _as_int(n, "riffle n", 1, BOOLEAN_ENUM_MAX)
    # subset S as a bit mask: labels in S in block 0, the rest in block 1
    rows = 1 - ((np.arange(1 << n, dtype=np.int64)[:, None] >> np.arange(n)) & 1)
    rows[0] = 0  # empty S: the complement is the one block
    return FaceWeightTable._from_rows("braid", n, rows, np.full(1 << n, 0.5 ** n))


def ehrenfest_face_weights(d):
    """Coordinate moves: weight 1/(2d) on each face pinning one coordinate.

    The 2d faces of length d must not pass ``TABLE_ENTRIES_MAX`` entries
    (d <= 1024).
    """
    d = _as_int(d, "d", 1)
    _check_table_size(2 * d, d)
    rows = np.zeros((2 * d, d), dtype=np.int8)
    rows[np.arange(2 * d), np.arange(2 * d) // 2] = np.tile([-1, 1], d)
    return FaceWeightTable._from_rows("boolean", d, rows, np.full(2 * d, 1.0 / (2 * d)))


def _check_graph(edges):
    cleaned = []
    seen = set()
    for e in edges:
        u, v = _as_ints(e, "1-based vertex", 1)
        if u == v:
            raise PreconditionError(f"self loop at vertex {u}")
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
