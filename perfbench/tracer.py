"""Span recorder for the traced benchmark run.

A span is ``[name, start, end, parent, task_id]`` with times from
``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so spans recorded in child
processes share the parent's time axis).  Spans stay in memory and are
written out when the run ends.

The wrappers are patched at every binding site: ``lucewalks`` modules import
functions by name (``cli`` binds ``limit_bottom_pmf``, ``arrangements`` binds
``permutation_rank_many``), so every module attribute that *is* the original
function is replaced.  ``bottomk`` reaches ``scipy.integrate.quad`` through
its module reference, which is swapped for a proxy whose ``quad`` wraps both
the call and the integrand.  Nothing outside ``lucewalks`` is modified.
"""

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("rng", "core", "kernels", "topk", "bottomk", "arrangements", "cli")


def _shape_cells(arr):
    shape = getattr(arr, "shape", ())
    return int(shape[0] * shape[1]) if len(shape) == 2 else 0


def _size(a, _result):
    return int(a["size"])


def _len_times_k(a, _result):
    return len(a["w"] if "w" in a else a["weights"]) * int(a["k"])


def _matrix_mib(_a, k_mat):
    """Bytes held by a transition matrix, dense or scipy-sparse, in MiB."""
    parts = (k_mat,) if hasattr(k_mat, "nbytes") else (k_mat.data, k_mat.indices, k_mat.indptr)
    return sum(p.nbytes for p in parts) / 2**20


# (module, attribute, span name, counter name, counter function)
TARGETS = (
    ("kernels", "weighted_order_many", "kernels.order", "kernels.order.cells",
     lambda a, r: _shape_cells(a["uniforms"])),
    ("kernels", "apply_boolean_reverse", "kernels.project", "kernels.project.cells",
     lambda a, r: _shape_cells(a["orders"])),
    ("kernels", "apply_braid_reverse", "kernels.project", "kernels.project.cells",
     lambda a, r: _shape_cells(a["orders"])),
    ("core", "sample_urn_many", "core.sample_urn", "core.rows", _size),
    ("core", "sample_exponential_many", "core.sample_exponential", "core.rows", _size),
    ("core", "luce_pmf", "core.pmf", None, None),
    ("core", "permutation_rank_many", "core.rank", None, None),
    ("core", "all_permutations", "core.enumerate", None, None),
    ("topk", "distance_report", "topk.report", None, None),
    ("topk", "tv_exact", "topk.tv", "topk.terms", _len_times_k),
    ("topk", "elementary_symmetric", "topk.elementary", "topk.terms", _len_times_k),
    ("bottomk", "limit_bottom_pmf", "bottomk.limit", None, None),
    ("bottomk", "finite_n_bottom_pmf", "bottomk.finite", None, None),
    ("bottomk", "limit_bottom_pmf_mc", "bottomk.mc", "bottomk.mc.samples", _size),
    ("bottomk", "convergence_test", "bottomk.converge", None, None),
    ("arrangements", "tsetlin_face_weights", "arrangements.tables", None, None),
    ("arrangements", "riffle_face_weights", "arrangements.tables", None, None),
    ("arrangements", "ehrenfest_face_weights", "arrangements.tables", None, None),
    ("arrangements", "graph_coloring_face_weights", "arrangements.tables", None, None),
    ("arrangements", "enumerate_chambers", "arrangements.enumerate", None, None),
    ("arrangements", "transition_matrix", "arrangements.transition", "arrangements.matrix_mib",
     _matrix_mib),
    ("arrangements", "stationary_exact", "arrangements.stationary", None, None),
    ("arrangements", "brown_diaconis_sample_many", "arrangements.bd", "arrangements.bd.rows",
     _size),
    ("cli", "main", "cli.main", None, None),
)


class _ModuleProxy:
    """Stands in for a module reference, overriding a few attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Collects spans, per-pass counters and per-layer error counts in memory."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.errors = Counter()
        self.task_id = None
        self.active = False
        self._stack = []
        self._patches = []
        self._failed = set()

    # -- spans -------------------------------------------------------------

    def open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.task_id])
        self._stack.append(sid)
        return sid

    def close(self, sid):
        self.spans[sid][2] = time.perf_counter()
        # a timeout can land between open() and the wrapper's try; dropping
        # everything above sid keeps the stack consistent anyway
        del self._stack[self._stack.index(sid):]

    def fail(self, layer, exc):
        """Count an exception once per layer it leaves."""
        key = (layer, id(exc))
        if key not in self._failed:
            self._failed.add(key)
            self.errors[layer] += 1

    def adopt(self, doc, parent=None):
        """Merge what a child process recorded (see ``dump``) under span ``parent``.

        Without ``parent`` the child's root spans hang under the open span.
        """
        if parent is None and self._stack:
            parent = self._stack[-1]
        offset = len(self.spans)
        for name, start, end, par, _task in doc["spans"]:
            self.spans.append([name, start, end, parent if par is None else par + offset,
                               self.task_id])
        self.counts.update(doc["counts"])
        self.errors.update(doc["errors"])

    def dump(self):
        return {"spans": self.spans, "counts": dict(self.counts), "errors": dict(self.errors)}

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn, name, counter=None, count=None):
        tracer = self
        layer = name.split(".")[0]
        sig = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.fail(layer, exc)
                raise
            finally:
                tracer.close(sid)
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.counts[counter] += count(bound.arguments, result)
            return result

        return wrapper

    def _wrap_quad(self, quad):
        tracer = self

        def integrand_of(func):
            @functools.wraps(func)
            def integrand(*args):
                sid = tracer.open("bottomk.integrand")
                try:
                    return func(*args)
                except BaseException as exc:
                    tracer.fail("bottomk", exc)
                    raise
                finally:
                    tracer.close(sid)
                    tracer.counts["bottomk.integrand_evals"] += 1

            return integrand

        traced = self.wrap(quad, "bottomk.quad")

        @functools.wraps(quad)
        def wrapped(func, *args, **kwargs):
            if tracer.active:
                func = integrand_of(func)
            return traced(func, *args, **kwargs)

        return wrapped

    def _wrap_errors_only(self, fn, layer):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if tracer.active:
                    tracer.fail(layer, exc)
                raise

        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target at every ``lucewalks`` binding site and activate."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "lucewalks" or n.startswith("lucewalks."))]
        by_name = {m.__name__: m for m in modules}
        for mod_name, attr, name, counter, count in TARGETS:
            module = by_name.get(f"lucewalks.{mod_name}")
            if module is None:
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(original, name, counter, count)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)
        bottomk = by_name["lucewalks.bottomk"]
        proxy = _ModuleProxy(bottomk.integrate, quad=self._wrap_quad(bottomk.integrate.quad))
        self._patch(bottomk, "integrate", proxy)
        # rng is not timed (arrangements reaches the numpy generator
        # directly); only exceptions leaving its methods are counted
        stream = by_name["lucewalks.rng"].RngStream
        for attr in ("random", "integers", "split"):
            self._patch(stream, attr, self._wrap_errors_only(getattr(stream, attr), "rng"))
        self.active = True

    def uninstall(self):
        self.active = False
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for name, start, end, parent, _task in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for sid, (name, start, end, _parent, _task) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, start), min(b, end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out


def self_time_by_name(spans):
    totals = defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        totals[span[0]] += self_s
    return totals


def span_counts(spans, task_id):
    return Counter(s[0] for s in spans if s[4] == task_id)
