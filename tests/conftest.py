import itertools
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "lucewalks",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("lucewalks")


@pytest.fixture
def rng():
    from lucewalks import RngStream

    return RngStream(20260814)


@pytest.fixture
def np_rng():
    return np.random.default_rng(20260814)


@pytest.fixture
def child_env():
    """Environment for a Python child process that imports this ``lucewalks``.

    Starts from ``os.environ``. The directory holding the ``lucewalks``
    package this process imported goes first on ``PYTHONPATH``, and every
    other entry is made absolute, so the child finds the same package from
    any working directory. ``LUCEWALKS_OUTPUT_DIR`` is dropped, so a run
    manifest lands in the child's working directory.
    """
    import lucewalks

    env = dict(os.environ)
    env.pop("LUCEWALKS_OUTPUT_DIR", None)
    package_root = str(Path(lucewalks.__file__).resolve().parent.parent)
    entries = [
        os.path.abspath(entry)
        for entry in env.get("PYTHONPATH", "").split(os.pathsep)
        if entry
    ]
    env["PYTHONPATH"] = os.pathsep.join([package_root, *entries])
    return env


def _sequential_urn(weights, size, gen):
    """Reference urn: draw labels one at a time, each with probability
    proportional to its weight among the labels still in the urn.

    Returns a (size, n) int64 array of 0-based labels in draw order.
    """
    w = [float(x) for x in weights]
    out = np.empty((size, len(w)), dtype=np.int64)
    for s in range(size):
        left = list(range(len(w)))
        for j in range(len(w)):
            r = gen.random() * sum(w[i] for i in left)
            k = 0
            while k < len(left) - 1 and r >= w[left[k]]:
                r -= w[left[k]]
                k += 1
            out[s, j] = left.pop(k)
    return out


@pytest.fixture
def sequential_urn():
    """The sequential urn sampler, the oracle for every order sampler."""
    return _sequential_urn


def _project_signs(chambers, faces):
    """Project (k, d) sign rows onto one (d,) face or (k, d) faces: nonzero entries win."""
    return np.where(faces != 0, faces, chambers)


def _project_orders(orders, block_ids):
    """Project (k, n) 0-based orders onto one (n,) face or (k, n) faces of block ids.

    Each row is stable-sorted by the block id of its labels, so labels
    sharing a block keep their order.
    """
    key = np.take_along_axis(np.broadcast_to(block_ids, orders.shape), orders, axis=1)
    srt = np.argsort(key, axis=1, kind="stable")
    return np.take_along_axis(orders, srt, axis=1)


_PROJECT_ROWS = {"boolean": _project_signs, "braid": _project_orders}


@pytest.fixture
def project_rows():
    """Row projections by kind: sign rows for ``"boolean"``, 0-based orders for ``"braid"``."""
    return _PROJECT_ROWS


def _reverse_chain(kind, faces, orders, start):
    """Project the row ``start`` onto each row's faces, last drawn first.

    The face product F1 F2 ... Fm read literally, with the row projection of ``kind``.
    """
    project = _PROJECT_ROWS[kind]
    orders = np.asarray(orders, dtype=np.int64)
    out = np.repeat(start[None, :], orders.shape[0], axis=0)
    for t in range(orders.shape[1] - 1, -1, -1):
        out = project(out, faces[orders[:, t]])
    return out


@pytest.fixture
def reverse_chain():
    """The reverse projection chain, the oracle for both face-product kernels."""
    return _reverse_chain


def _chamber_keys(kind, rows):
    """Integer keys of chamber rows (last axis) that sort as the ``enumerate_chambers`` listing.

    Sign rows read as bits, so a key is the chamber's index; 0-based orders of
    n labels read as base-n digits.
    """
    d = rows.shape[-1]
    digits, base = (rows > 0, 2) if kind == "boolean" else (rows, d)
    return digits.astype(np.int64) @ base ** np.arange(d - 1, -1, -1, dtype=np.int64)


def _projected_ranks(table):
    """``transition_matrix(table).ranks`` by projecting every chamber onto every face.

    The chambers are listed by ``itertools``, each projected row is keyed, and the keys
    are searched for among the listing's, which ascend.
    """
    if table.kind == "boolean":
        chambers = np.array(list(itertools.product((-1, 1), repeat=table.dim)), dtype=np.int8)
    else:
        chambers = np.array(list(itertools.permutations(range(table.dim))), dtype=np.int64)
    project = _PROJECT_ROWS[table.kind]
    listed = _chamber_keys(table.kind, chambers)
    return np.array([np.searchsorted(listed, _chamber_keys(table.kind, project(chambers, face)))
                     for face in table.entries_matrix()], dtype=np.int32)


@pytest.fixture
def projected_ranks():
    """Face ranks by projection, key and search, the oracle for ``transition_matrix``'s ranks."""
    return _projected_ranks


def _dense_kernel(table):
    """The N x N one-step kernel of a face table, one scalar projection at a time.

    Entry [c, c'] sums, in face order, the weights of the faces that send
    chamber c to chamber c', both in ``enumerate_chambers`` order.
    """
    from lucewalks import chamber_index, enumerate_chambers, project_boolean, project_braid

    project = project_boolean if table.kind == "boolean" else project_braid
    chambers = enumerate_chambers(table.kind, table.dim)
    faces = table.faces
    k = np.zeros((len(chambers),) * 2)
    for c in chambers:
        for face, w in zip(faces, table.weights):
            k[chamber_index(c), chamber_index(project(c, face))] += w
    return k


@pytest.fixture
def dense_kernel():
    """The dense kernel built by scalar projections, the oracle for ``transition_matrix``."""
    return _dense_kernel
