"""Hot sampling kernels, vectorized with numpy.

The kernels are deliberately dumb about randomness: callers pass arrays of
uniforms drawn from an RngStream, which keeps all stream handling in one
place.
"""

import numpy as np

BACKEND = "numpy"


# ---------------------------------------------------------------------------
# weighted order sampling (sequential draws without replacement)
# ---------------------------------------------------------------------------

# Rows this narrow keep numpy's stable sort, which sort-and-repair does not
# beat there.  Over 2e6 float64 cells (best of 9, 2-vCPU AVX-512 VM), stable
# against repaired: n = 4 26 / 64 ms, n = 8 28 / 30 ms, n = 12 30 / 28 ms,
# n = 32 39 / 21 ms.
_STABLE_SORT_MAX_N = 8
# Cells gathered at a time: sorted values looking for ties, and face pins.
_CHUNK_CELLS = 2**18


def _race_order(weights, uniforms):
    """Exponential race: stable ascending sort of ``-log(U) / w`` per row.

    Independent Exponential(w_i) clocks ring in the order of sequential
    weighted draws without replacement, so each row is a draw order.  ``U = 0``
    and overflow give infinite clocks; ties go to the smaller index.

    ``_stable_argsort`` sorts the clocks: the default argsort, with only the
    rows that hold a tie sorted again stably.
    """
    with np.errstate(divide="ignore", over="ignore"):
        clocks = -np.log(uniforms) / weights
    return _stable_argsort(clocks)


def _stable_argsort(a):
    """``np.argsort(a, axis=1, kind="stable")`` as int64, re-sorting only tied rows.

    Rows wider than ``_STABLE_SORT_MAX_N`` take the default (unstable)
    argsort, about twice as fast.  Only a row whose sorted values hold an
    equal adjacent pair can differ from the stable sort, so those rows alone
    are sorted again with ``kind="stable"``; the result is the stable argsort
    bit for bit.  The tie check runs ``_CHUNK_CELLS`` cells at a time, so
    beyond ``a`` and the result it holds one chunk.
    """
    rows, n = a.shape
    if n <= _STABLE_SORT_MAX_N:
        return np.argsort(a, axis=1, kind="stable").astype(np.int64, copy=False)
    out = np.argsort(a, axis=1).astype(np.int64, copy=False)
    step = max(1, _CHUNK_CELLS // n)
    for lo in range(0, rows, step):
        srt = np.take_along_axis(a[lo:lo + step], out[lo:lo + step], axis=1)
        tied = lo + np.flatnonzero(_tied(srt))
        del srt  # free this chunk before the next one is gathered
        if tied.size:
            out[tied] = np.argsort(a[tied], axis=1, kind="stable")
    return out


def _tied(srt):
    """Rows of row-sorted ``srt`` with an adjacent pair that does not increase.

    Such a pair is equal, or NaN, which sorts last and equals nothing.
    """
    return ~(srt[:, 1:] > srt[:, :-1]).all(axis=1)


def weighted_order_many(weights, uniforms):
    """Draw complete without-replacement orders, vectorized across samples.

    Parameters
    ----------
    weights : (n,) float64, strictly positive
    uniforms : (n_samples, n) float64 in [0, 1)
        One uniform per item: its exponential clock is ``-log(U_i) / w_i``.

    Returns
    -------
    (n_samples, n) int64 array; row s lists 0-based item indices in the order
    they were drawn.
    """
    w = np.asarray(weights, dtype=np.float64)
    u = np.asarray(uniforms, dtype=np.float64)
    _, n = u.shape
    if w.shape != (n,):
        raise ValueError("weights and uniforms disagree on n")
    return _race_order(w, u)


# ---------------------------------------------------------------------------
# face projections of chamber rows
# ---------------------------------------------------------------------------

def project_signs(chambers, faces):
    """Project (k, d) sign rows onto one (d,) face or (k, d) faces: nonzero entries win."""
    return np.where(faces != 0, faces, chambers)


def project_orders(orders, block_ids):
    """Project (k, n) 0-based orders onto one (n,) face or (k, n) faces of block ids.

    Each row is stable-sorted by the block id of its labels, so labels
    sharing a block keep their order.
    """
    key = np.take_along_axis(np.broadcast_to(block_ids, orders.shape), orders, axis=1)
    srt = np.argsort(key, axis=1, kind="stable")
    return np.take_along_axis(orders, srt, axis=1)


# ---------------------------------------------------------------------------
# face products in draw order, computed forward
# ---------------------------------------------------------------------------

# Braid keys are re-ranked densely before ``key * b`` would pass this.
_KEY_HEADROOM = 2**62


def apply_boolean_reverse(face_entries, orders):
    """Boolean chambers from face draw orders: the product F1 F2 ... Fm per row.

    ``face_entries`` is (m, d) int8 over {-1, 0, +1}; ``orders`` is
    (n_samples, m) int64, each row a draw order of the m faces.  Returns the
    (n_samples, d) int8 chambers: the all-+1 row projected onto each row's
    faces in reverse draw order, which gave the function its name; the tracer
    and callers bind it.

    The product is computed forward.  A face cannot change an entry that an
    earlier drawn face pinned (faces form a left-regular band), so coordinate
    i takes the sign of the first drawn face nonzero at i, or +1 if none is.
    Rows go in chunks that gather ``_CHUNK_CELLS`` pin ranks at a time.
    """
    faces = np.asarray(face_entries, dtype=np.int8)
    orders = np.asarray(orders, dtype=np.int64)
    out = np.ones((orders.shape[0], faces.shape[1]), dtype=np.int8)
    coord, pin = np.nonzero(faces.T)  # pins grouped by coordinate
    if not pin.size:
        return out
    cols, starts = np.unique(coord, return_index=True)
    step = max(1, _CHUNK_CELLS // pin.size)
    for lo in range(0, orders.shape[0], step):
        rows = orders[lo:lo + step]
        rank = np.empty(rows.shape, dtype=np.int32)  # rank[s, f]: when face f is drawn
        np.put_along_axis(rank, rows, np.arange(rows.shape[1], dtype=np.int32), axis=1)
        first = np.minimum.reduceat(rank[:, pin], starts, axis=1)  # per coordinate
        out[lo:lo + step, cols] = faces[np.take_along_axis(rows, first, axis=1), cols]
    return out


def apply_braid_reverse(face_block_ids, orders):
    """Braid chambers from face draw orders: the product F1 F2 ... Fm per row.

    ``face_block_ids`` is (m, n) int64: entry [f, lab] is the 0-based block
    (numbered top down) holding 0-based label ``lab`` in face f.  ``orders``
    is (n_samples, m) int64 face draw orders.  Returns the (n_samples, n)
    int64 chamber orders, 0-based labels listed top to bottom.  They equal
    projecting the identity order onto each row's faces in reverse draw
    order, which gave the function its name; the tracer and callers bind it.

    The product is computed forward.  Each label carries an integer key,
    ``key * b + block id`` at each face in draw order (b is the largest block
    count), so the keys sort the labels as the product does.  Once a row's keys
    are all distinct its product is a chamber, which later faces cannot change
    (faces form a left-regular band), so the row leaves the loop with the
    argsort of its keys.  Rows still tied after the last face, which only
    non-separating tables leave, break ties toward the smaller label, as the
    identity start row does in the reverse chain.
    """
    faces = np.asarray(face_block_ids, dtype=np.int64)
    orders = np.asarray(orders, dtype=np.int64)
    size, m = orders.shape
    n = faces.shape[1]
    b = int(faces.max()) + 1
    out = np.empty((size, n), dtype=np.int64)
    live = np.arange(size)  # rows whose keys still tie
    keys = np.zeros((size, n), dtype=np.int64)
    span = 1  # every key is below span
    next_check, gap = 0, 1
    for t in range(m):
        if span * b > _KEY_HEADROOM:
            keys = _dense_rank(keys)
            span = min(span, n)
        if t >= next_check and span >= n:  # n distinct keys need span >= n
            done = ~_tied(np.sort(keys, axis=1))
            if done.any():
                out[live[done]] = np.argsort(keys[done], axis=1)
                live, keys, orders = live[~done], keys[~done], orders[~done]
                if not live.size:
                    return out
            next_check, gap = t + gap, 2 * gap  # checks sort, so they widen
        keys *= b
        keys += faces[orders[:, t]]
        span *= b
    out[live] = _stable_argsort(keys)
    return out


def _dense_rank(keys):
    """Replace each row's keys, in place, by their dense ranks 0, 1, ...: ties stay ties."""
    srt = np.argsort(keys, axis=1)
    ordered = np.take_along_axis(keys, srt, axis=1)
    ranks = np.zeros_like(keys)
    np.cumsum(ordered[:, 1:] != ordered[:, :-1], axis=1, out=ranks[:, 1:])
    np.put_along_axis(keys, srt, ranks, axis=1)
    return keys

