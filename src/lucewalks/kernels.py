"""Hot sampling kernels, vectorized with numpy.

The kernels are deliberately dumb about randomness: callers pass arrays of
uniforms drawn from an RngStream, which keeps all stream handling in one
place.  The exponential race sorts each clock's bits, packed with its label,
in the result array; the face products build chambers forward, in draw order.
The walk kernels that ``arrangements.transition_matrix`` builds need no
projection here: it ranks projected chambers by index arithmetic.
"""

import numpy as np

BACKEND = "numpy"


# ---------------------------------------------------------------------------
# weighted order sampling (sequential draws without replacement)
# ---------------------------------------------------------------------------

# Rows this narrow keep numpy's stable argsort, which the packed sort does not
# beat there.  Over 2e6 cells (best of 9, two runs, 2-vCPU AVX-512 VM, numpy
# 2.4), stable against packed: n = 4 45 / 49 and 34 / 39 ms, n = 5 35 / 33
# and 31 / 34 ms, n = 6 31 / 28 and 37 / 37 ms, n = 7 38 / 26 and 40 / 28 ms,
# n = 8 34 / 23 and 42 / 25 ms.
_STABLE_SORT_MAX_N = 6
# Cells held at a time: race keys sorted in place, and face pins.
_CHUNK_CELLS = 2**18


def _clocks(weights, uniforms):
    with np.errstate(divide="ignore", over="ignore"):
        return -np.log(uniforms) / weights


def _race_order(weights, uniforms):
    """Exponential race: ``np.argsort(-log(U) / w, axis=1, kind="stable")`` as int64.

    Independent Exponential(w_i) clocks ring in the order of sequential
    weighted draws without replacement, so each row is a draw order.  ``U = 0``
    and overflow give infinite clocks; ties go to the smaller index.  Uniforms
    lie in [0, 1], so every clock is at least 0 (or NaN, which sorts last).

    Rows wider than ``_STABLE_SORT_MAX_N`` sort values, not indices, one
    ``_CHUNK_CELLS`` chunk of rows at a time, in the result array itself.
    The bits of a clock that is at least 0 order as a uint64 exactly as its
    value does.  So each cell takes the bits of ``log(U) / w`` with the sign
    bit cleared, which are those of the clock (a -0.0 clock turns +0.0),
    and the index of its label in place of the low ``s = ceil(log2 n)`` bits.
    numpy's in-place sort orders those keys, and the low bits then read as the
    draw order.  Only a row in which two neighbouring keys share their high
    bits can differ from the stable argsort (equal clocks, infinite ones, or
    clocks that the lost low bits made equal), so those rows alone are
    sorted again from their clocks with ``kind="stable"``.
    """
    rows, n = uniforms.shape
    if n <= _STABLE_SORT_MAX_N:
        return np.argsort(_clocks(weights, uniforms), axis=1, kind="stable")
    s = (n - 1).bit_length()
    low = np.uint64((1 << s) - 1)  # the label bits
    high = np.uint64((1 << 63) - (1 << s))  # the clock bits kept: all but the sign and low
    labels = np.arange(n, dtype=np.uint64)
    out = np.empty((rows, n), dtype=np.int64)
    step = max(1, _CHUNK_CELLS // n)
    for lo in range(0, rows, step):
        keys = out[lo:lo + step].view(np.uint64)
        minus_clocks = keys.view(np.float64)
        with np.errstate(divide="ignore", over="ignore"):
            np.log(uniforms[lo:lo + step], out=minus_clocks)
            minus_clocks /= weights
        keys &= high
        keys |= labels
        keys.sort(axis=1)
        tied = lo + np.flatnonzero(_tied(keys >> s))
        keys &= low
        if tied.size:
            out[tied] = np.argsort(_clocks(weights, uniforms[tied]), axis=1, kind="stable")
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
    argsort of its keys.  A face adds at most as many key classes as it has
    labels outside its largest block, so a row is checked only once 1 plus
    that count, summed over its faces so far, reaches n: a Tsetlin face
    {i} / rest adds one, so its rows wait for n - 1 faces.  Rows still tied
    after the last face, which only non-separating tables leave, break ties
    toward the smaller label, as the identity start row does in the reverse
    chain.
    """
    faces = np.asarray(face_block_ids, dtype=np.int64)
    orders = np.asarray(orders, dtype=np.int64)
    size, m = orders.shape
    n = faces.shape[1]
    b = int(faces.max()) + 1
    block_sizes = np.bincount((faces + b * np.arange(m)[:, None]).ravel(), minlength=m * b)
    gain = n - block_sizes.reshape(m, b).max(axis=1)  # labels outside each face's largest block
    out = np.empty((size, n), dtype=np.int64)
    live = np.arange(size)  # rows whose keys still tie
    keys = np.zeros((size, n), dtype=np.int64)
    reach = np.ones(size, dtype=np.int64)  # distinct keys per row are at most this
    span = 1  # every key is below span
    next_check, gap = 0, 1
    for t in range(m):
        if span * b > _KEY_HEADROOM:
            keys = _dense_rank(keys)
            span = min(span, n)
        # n distinct keys need span >= n and reach >= n
        if t >= next_check and span >= n and (done := reach >= n).any():
            srt = keys[done]
            srt.sort(axis=1)
            done[done] = ~_tied(srt)
            del srt  # before the argsort below
            if done.all():  # without copying the keys
                out[live] = np.argsort(keys, axis=1)
                return out
            if done.any():
                out[live[done]] = np.argsort(keys[done], axis=1)
                live, keys, reach = live[~done], keys[~done], reach[~done]
            next_check, gap = t + gap, 2 * gap  # checks sort, so they widen
        drawn = orders[live, t]
        keys *= b
        keys += faces[drawn]
        reach += gain[drawn]
        span *= b
    out[live] = np.argsort(keys, axis=1, kind="stable")
    return out


def _dense_rank(keys):
    """Replace each row's keys, in place, by their dense ranks 0, 1, ...: ties stay ties."""
    srt = np.argsort(keys, axis=1)
    ordered = np.take_along_axis(keys, srt, axis=1)
    ranks = np.zeros_like(keys)
    np.cumsum(ordered[:, 1:] != ordered[:, :-1], axis=1, out=ranks[:, 1:])
    np.put_along_axis(keys, srt, ranks, axis=1)
    return keys

