"""The names the benchmark's tracer binds must keep existing.

``perfbench/tracer.py`` wraps the functions listed in its ``TARGETS`` and
reads some of their parameters by name in its counters.  A renamed function
or parameter would only surface in a benchmark run, so this checks them here.
So is what the benchmark reads of a kernel: ``pi @ K`` and ``K.nbytes``.
"""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
CHILD_PATH = TRACER_PATH.with_name("child.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracer().TARGETS


class _Stand:
    """Stands in for any argument or result a counter inspects."""

    shape = (2, 3)
    nbytes = 0

    def __int__(self):
        return 1

    def __len__(self):
        return 1


@pytest.mark.parametrize("target", TARGETS, ids=[f"{t[0]}.{t[1]}" for t in TARGETS])
def test_target_resolves(target):
    mod_name, attr, _span, _counter, count = target
    fn = getattr(importlib.import_module(f"lucewalks.{mod_name}"), attr, None)
    assert callable(fn), f"lucewalks.{mod_name}.{attr} is gone"
    if count is not None:
        params = {name: _Stand() for name in inspect.signature(fn).parameters}
        try:
            count(params, _Stand())
        except KeyError as e:
            pytest.fail(f"lucewalks.{mod_name}.{attr} has no parameter {e} "
                        f"(has {sorted(params)})")


def test_module_bindings():
    from lucewalks import bottomk, kernels

    assert callable(bottomk.integrate.quad)
    assert isinstance(kernels.BACKEND, str)


LAZY_BINDING = '''
import importlib.util
import sys


def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))[:3]


import lucewalks.cli
from lucewalks import bottomk

quad = bottomk.integrate.quad
assert not scipy_loaded(), scipy_loaded()

spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_module)
tracer = tracer_module.Tracer()
tracer.install()
assert not scipy_loaded(), scipy_loaded()
tracer.uninstall()
assert bottomk.integrate.quad is quad


class Counting:
    def __init__(self):
        self.calls = 0

    def quad(self, *args, **kwargs):
        self.calls += 1
        return quad(*args, **kwargs)


proxy = Counting()
bottomk.integrate = proxy
bottomk.limit_bottom_pmf(bottomk.linear_weights(), (1,))
assert proxy.calls >= 1, proxy.calls
assert not scipy_loaded(), scipy_loaded()

import numpy as np
import scipy.integrate


def f(x):
    return np.exp(-x) * np.sin(3.0 * x) ** 2


kwargs = dict(epsabs=1e-12, epsrel=1e-10, limit=200, points=[0.5, 2.0])
value, abserr = quad(f, 0.0, 4.0, **kwargs)
ref, _ = scipy.integrate.quad(f, 0.0, 4.0, **kwargs)
assert 0.0 < abserr <= 1e-10 and abs(value - ref) <= abserr, (value, abserr, ref)
'''


def test_lazy_integrate_binding(tmp_path, child_env):
    """``bottomk.integrate`` is numpy only, and is read at each quadrature.

    In a fresh process: importing ``lucewalks.cli``, reading the binding,
    installing the tracer and running a quadrature load no ``scipy`` module;
    a proxy set at that name sees the quadrature calls; and ``quad`` agrees
    with ``scipy.integrate.quad``, the test's oracle, within its own error
    estimate on the same integrand and breakpoints.
    """
    proc = subprocess.run([sys.executable, "-c", LAZY_BINDING, str(TRACER_PATH)],
                          capture_output=True, text=True, cwd=tmp_path, env=child_env)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_child_tsetlin_solve(tmp_path, child_env):
    """``child.py tsetlin-solve``, as the ``chambers`` workload runs it, solves to the Luce law."""
    import numpy as np

    from lucewalks import all_permutations, luce_pmf

    w = [0.1, 0.2, 0.3, 0.4]
    proc = subprocess.run([sys.executable, str(CHILD_PATH), "tsetlin-solve", json.dumps(w)],
                          capture_output=True, text=True, cwd=tmp_path, env=child_env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    doc = json.loads(proc.stdout)
    assert doc["residual"] <= 1e-10
    expected = [luce_pmf(w, p) for p in all_permutations(4)]
    assert np.abs(np.array(doc["pi"]) - expected).max() <= 1e-12


def test_matrix_mib_reads_the_kernel():
    from lucewalks import normalize, transition_matrix, tsetlin_face_weights

    k_mat = transition_matrix(tsetlin_face_weights(normalize([1.0, 2.0, 3.0])))
    mib = _load_tracer()._matrix_mib(None, k_mat)
    assert isinstance(mib, float) and mib > 0.0
