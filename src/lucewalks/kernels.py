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

def _race_order(weights, uniforms):
    """Exponential race: stable ascending sort of ``-log(U) / w`` per row.

    Independent Exponential(w_i) clocks ring in the order of sequential
    weighted draws without replacement, so each row is a draw order.  ``U = 0``
    gives an infinite clock; ties go to the smaller index.
    """
    with np.errstate(divide="ignore"):
        clocks = -np.log(uniforms) / weights
    return np.argsort(clocks, axis=1, kind="stable").astype(np.int64, copy=False)


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
# reverse-order face projection chains
# ---------------------------------------------------------------------------

def apply_boolean_reverse(face_entries, orders):
    """Apply Boolean face projections in reverse draw order.

    Parameters
    ----------
    face_entries : (m, d) int8 with values in {-1, 0, +1}
    orders : (n_samples, m) int64, rows are draw orders of the m faces

    Returns
    -------
    (n_samples, d) int8 array of resulting chambers.  The projections start
    from the all-+1 row; separating faces overwrite every entry of it.
    """
    faces = np.asarray(face_entries, dtype=np.int8)
    return _reverse_chain(project_signs, faces, orders, np.ones(faces.shape[1], dtype=np.int8))


def apply_braid_reverse(face_block_ids, orders):
    """Apply braid face projections in reverse draw order.

    Parameters
    ----------
    face_block_ids : (m, n) int64; entry [f, lab] is the 0-based block index
        containing 0-based label ``lab`` in face f (blocks numbered top down)
    orders : (n_samples, m) int64 face draw orders

    Returns
    -------
    (n_samples, n) int64 array of resulting chamber orders, 0-based labels
    listed top to bottom.  The projections start from the identity order;
    separating faces overwrite every entry of it.
    """
    faces = np.asarray(face_block_ids, dtype=np.int64)
    return _reverse_chain(project_orders, faces, orders, np.arange(faces.shape[1]))


def _reverse_chain(project, faces, orders, start):
    """Project the row ``start`` onto each row's faces, last drawn first."""
    orders = np.asarray(orders, dtype=np.int64)
    out = np.repeat(start[None, :], orders.shape[0], axis=0)
    for t in range(orders.shape[1] - 1, -1, -1):
        out = project(out, faces[orders[:, t]])
    return out
