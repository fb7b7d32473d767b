"""The names the benchmark's tracer binds must keep existing.

``perfbench/tracer.py`` wraps the functions listed in its ``TARGETS`` and
reads some of their parameters by name in its counters.  A renamed function
or parameter would only surface in a benchmark run, so this checks them here.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
