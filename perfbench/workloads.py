"""The four workloads: inputs made from the seed, fixed task lists, and checks.

Every task calls the public ``lucewalks`` API through attribute lookups on the
package (``L.name``) at call time, so the traced run's wrappers see them.
Each task's output is checked against an independent route (``checks``);
a check raises :class:`checks.CheckFailure`, which counts the task as failed.
Checks run outside the task's timed region, with tracing paused.

Sizes are fixed per workload (a pass takes 6-12 s on a 2-core machine),
and every pass repeats the same inputs; ``tiny`` sizes serve the smoke test.
Three tasks hit known library defects; they are declared ``expected_failure``
with their cause and kept at full size, so a fix shows.
"""

import functools
import json
import math
import os
import resource
import subprocess
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

import checks
import lucewalks as L
from checks import chi_square, expect, is_permutation_rows

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
MEMORY_EXIT = 86  # exit code child.py uses for MemoryError
MANIFEST_MISSING = "run_manifest.json missing"
# a CLI run takes about 1 s, nearly all start-up; the limit is what a failed
# run is charged, so it stays within a few times that
CLI_LIMIT_S = 4.0


class TaskTimeout(BaseException):
    """A task ran past its time limit.

    Derives from BaseException so library code catching ``Exception`` cannot
    swallow it.
    """


@dataclass
class Task:
    name: str
    run: object                # () -> result, the timed operation
    check: object              # (result) -> dict of measures; raises CheckFailure
    limit_s: float             # time limit, charged to wall_s when the task fails
    mem_mib: int = 1536        # address-space ceiling while the task runs
    spans: dict = field(default_factory=dict)  # span counts the traced pass must show
    child: bool = False        # runs in its own process; limits apply to that process
    # prefix of the failure a known defect causes ("timeout", "memory", "check: ..."),
    # with its cause in `why`
    expected_failure: str | None = None
    why: str = ""


@dataclass
class Context:
    """Run-time facts the tasks need: where children run and whether they trace."""

    work: str
    env: dict
    tracer: object = None      # set while the traced pass runs

    @property
    def tracing(self):
        return self.tracer is not None and self.tracer.active


@dataclass
class ChildResult:
    code: int
    stdout: str
    stderr: str


def run_child(ctx, argv, probe, limit_s, mem_mib, process_span=None):
    """Run ``argv`` under an address-space ceiling; kill it at ``limit_s``.

    While the traced pass runs, ``child.py`` runs ``probe`` instead, and the
    spans it records are adopted under ``process_span`` (or the open span).
    """
    tracer = ctx.tracer if ctx.tracing else None
    trace_path = None
    if tracer is not None:
        trace_path = os.path.join(ctx.work, "child.trace.json")
        argv = [sys.executable, CHILD, "--trace-out", trace_path] + probe
    sid = tracer.open(process_span) if tracer is not None and process_span else None
    try:
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, env=ctx.env, cwd=ctx.work)
        try:
            ceiling = mem_mib << 20
            resource.prlimit(proc.pid, resource.RLIMIT_AS, (ceiling, ceiling))
        except ProcessLookupError:  # already exited
            pass
        try:
            out, err = proc.communicate(timeout=limit_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise TaskTimeout from None
    finally:
        if sid is not None:
            tracer.close(sid)
    if trace_path is not None and os.path.exists(trace_path):
        with open(trace_path) as fh:
            tracer.adopt(json.load(fh), parent=sid)
        os.remove(trace_path)
    return ChildResult(proc.returncode, out, err)


def _once(fn):
    """Cache a check-side computation for the run (every pass repeats the inputs)."""
    return functools.lru_cache(maxsize=None)(fn)


def _pmf_table(weights, n):
    perms = L.all_permutations(n)
    return np.array([L.luce_pmf(weights, p) for p in perms])


def _rank_counts(rows, n):
    return np.bincount(L.permutation_rank_many(rows), minlength=math.factorial(n))


# ---------------------------------------------------------------------------
# draws: Luce order sampling and top-k diagnostics at large n
# ---------------------------------------------------------------------------

def draws(seed, ctx, tiny=False):
    g = np.random.default_rng([seed, 1])
    n_scan, rows_scan = (40, 20) if tiny else (500, 2000)
    n_exp, rows_exp = (100, 50) if tiny else (2000, 2000)
    n_tree, rows_tree = (500, 2) if tiny else (20000, 5)
    n_big, ks = (2000, (5, 10)) if tiny else (100_000, (50, 200))
    w_scan = L.WeightVector(g.uniform(0.5, 2.0, n_scan))
    w_exp = L.WeightVector(g.uniform(0.5, 2.0, n_exp))
    w_tree = L.WeightVector(g.uniform(0.5, 2.0, n_tree))
    w_big = L.normalize(L.WeightVector(g.uniform(0.5, 2.0, n_big)))
    w_unif = L.WeightVector(np.full(n_big, 1.0 / n_big))
    w4 = L.WeightVector(g.uniform(0.5, 2.0, 4))
    s = [int(v) for v in g.integers(0, 2**63, size=8)]

    @_once
    def n4_chi_square(method):
        rows = 6000 if method == "tree" else 20000
        if method == "exponential":
            out = L.sample_exponential_many(w4, rows, L.RngStream(s[3]))
        else:
            out = L.sample_urn_many(w4, rows, L.RngStream(s[4]), method=method)
        return chi_square(_rank_counts(out, 4), _pmf_table(w4, 4), f"{method} sampler at n=4")

    def sampler_check(n, method):
        def check(rows):
            expect(is_permutation_rows(rows, n), f"{method}: rows are not permutations of 1..{n}")
            n4_chi_square(method)
            return {}
        return check

    def topk_task(k):
        def run():
            return L.distance_report(w_big, k), L.tv_exact(w_unif, k)

        def check(result):
            report, tv_unif = result
            ref = L.tv_uniform_exact(n_big, k)
            expect(abs(tv_unif - ref) <= 1e-9, f"tv_exact {tv_unif!r} vs closed form {ref!r}")
            lam = math.comb(k, 2) * float(np.sum(w_big.weights ** 2))
            expect(math.isclose(report.collision_lambda, lam, rel_tol=1e-9), "lambda mismatch")
            expect(math.isclose(report.tv_poisson, -math.expm1(-lam), rel_tol=1e-9),
                   "Poisson approximation mismatch")
            expect(report.tv_exact <= report.d_inf_exact + 1e-12 <= report.d_inf_bound + 2e-12,
                   "distance ordering tv <= d_inf <= bound violated")
            return {}

        return Task(f"topk_k{k}", run, check, limit_s=10.0,
                    spans={"topk.report": 1, "topk.tv": 2})

    return [
        Task("urn_scan", lambda: L.sample_urn_many(w_scan, rows_scan, L.RngStream(s[0]),
                                                   method="scan"),
             sampler_check(n_scan, "scan"), limit_s=15.0,
             spans={"core.sample_urn": 1, "kernels.order": 1}),
        Task("exponential", lambda: L.sample_exponential_many(w_exp, rows_exp, L.RngStream(s[1])),
             sampler_check(n_exp, "exponential"), limit_s=10.0,
             spans={"core.sample_exponential": 1}),
        Task("urn_tree", lambda: L.sample_urn_many(w_tree, rows_tree, L.RngStream(s[2]),
                                                   method="tree"),
             sampler_check(n_tree, "tree"), limit_s=10.0,
             spans={"core.sample_urn": 1, "kernels.order": 0}),
        *(topk_task(k) for k in ks),
    ]


# ---------------------------------------------------------------------------
# bottom: certified bottom-card tables
# ---------------------------------------------------------------------------

def _limit_values(seq_factory, labels, tol):
    seq = seq_factory()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", L.DefectiveMassWarning)
        values = [L.limit_bottom_pmf(seq, a, tol=tol) for a in labels]
    defective = sum(isinstance(c.message, L.DefectiveMassWarning) for c in caught)
    return values, defective


def bottom(seed, ctx, tiny=False):
    g = np.random.default_rng([seed, 2])
    s = [int(v) for v in g.integers(0, 2**63, size=4)]
    log_labels = [(1,)] if tiny else [(1,), (2,), (3,)]
    loglog_labels = [(1,)] if tiny else [(1,), (2,)]
    linear_labels = [(v,) for v in range(1, 4 if tiny else 11)] + [(1, 2), (3, 1, 4)]
    n_finite = 200 if tiny else 2000
    mc_linear = 2000 if tiny else 20000
    mc_log = 500
    log_tol, loglog_tol, linear_tol = (1e-4, 1e-3, 1e-8) if tiny else (1e-6, 1e-4, 1e-8)

    def log2():
        return L.log_weights(2.0)

    @_once
    def log_reference(label):
        return checks.log_family_bottom_pmf(2.0, label)

    @_once
    def linear_quadrature():
        return L.limit_bottom_pmf(L.linear_weights(), (1,), tol=1e-9)

    def check_log(result):
        values, _ = result
        worst = 0.0
        for (label,), v in zip(log_labels, values):
            worst = max(worst, abs(v - log_reference(label)) / log_tol)
        expect(worst <= 1.0, f"log beta=2 table off its zeta reference by {worst:.3g} tol")
        return {"bottomk.err_over_tol": worst}

    def check_loglog(result):
        values, defective = result
        expect(defective == len(loglog_labels),
               f"{defective} DefectiveMassWarning for {len(loglog_labels)} log-loglog labels")
        expect(all(0.0 < v < 1.0 for v in values) and sum(values) < 1.0,
               "log-loglog probabilities outside (0, 1)")
        return {}

    def check_linear(result):
        values, defective = result
        expect(defective == 0, "DefectiveMassWarning on the linear family")
        worst = 0.0
        for a, v in zip(linear_labels, values):
            worst = max(worst, abs(v - checks.integer_weights_bottom_pmf(a)) / linear_tol)
            if len(a) == 1:
                frozen = checks.LAST_CARD_TABLE[a[0] - 1]
                expect(abs(v - frozen) <= checks.LAST_CARD_ATOL,
                       f"linear label {a[0]}: {v!r} vs frozen {frozen}")
        expect(worst <= 1.0, f"linear table off its Gauss-Legendre reference by {worst:.3g} tol")
        return {"bottomk.err_over_tol": worst}

    def run_finite():
        return L.finite_n_bottom_pmf(L.WeightVector(np.arange(1.0, n_finite + 1)), (1,))

    def check_finite(v):
        ref = checks.integer_weights_bottom_pmf((1,), n_max=n_finite)
        expect(abs(v - ref) <= 1e-10, f"finite n={n_finite}: {v!r} vs reference {ref!r}")
        expect(abs(v - checks.LAST_CARD_TABLE[0]) <= checks.LAST_CARD_ATOL,
               f"finite n={n_finite}: {v!r} vs frozen {checks.LAST_CARD_TABLE[0]}")
        return {"bottomk.err_over_tol": abs(v - ref) / 1e-10}

    families = (("linear", L.linear_weights, 0.0, "infinite"),
                ("constant", L.constant_weights, math.inf, "finite"),
                ("log", log2, 0.5, "infinite"),
                ("log-loglog", L.log_loglog_weights, 1.0, "finite"))

    def run_families():
        return [L.convergence_test(factory()) for _, factory, _, _ in families]

    def check_families(reports):
        # x0 and f(x0) of each family as the paper derives them
        for (name, _, x0, f_at), rep in zip(families, reports):
            expect(rep.x0 == x0 and rep.f_at_x0 == f_at,
                   f"{name}: x0={rep.x0} f(x0)={rep.f_at_x0}, want {x0} {f_at}")
            expect(rep.converges == (math.isfinite(x0) and f_at == "infinite"),
                   f"{name}: converges flag")
        return {}

    def run_custom():
        return L.convergence_test(
            L.WeightSequence(lambda i: 1.5 * math.log(i + 1), monotone=True))

    def check_custom(rep):
        # without a tail bound the classifier promises only a flagged heuristic
        expect(rep.method == "numeric-best-effort" and rep.caveat is not None,
               "custom sequence without tail bound not flagged as best effort")
        expect(0.0 < rep.x0 < math.inf, f"custom sequence: x0={rep.x0}")
        return {}

    def check_mc_linear(result):
        est, stderr = result
        z = abs(est - linear_quadrature()) / stderr
        expect(z <= checks.MC_Z_MAX, f"linear MC z-score {z:.2f}")
        return {"bottomk.mc.max_z": z}

    def check_mc_log(result):
        est, stderr = result
        z = abs(est - log_reference(1)) / stderr
        expect(z <= checks.MC_Z_MAX, f"log beta=2 MC z-score {z:.2f}")
        return {"bottomk.mc.max_z": z}

    return [
        Task("log_beta2_table", lambda: _limit_values(log2, log_labels, log_tol), check_log,
             limit_s=30.0, spans={"bottomk.limit": len(log_labels)}),
        Task("log_loglog_table",
             lambda: _limit_values(L.log_loglog_weights, loglog_labels, loglog_tol),
             check_loglog, limit_s=30.0, spans={"bottomk.limit": len(loglog_labels)}),
        Task("linear_table", lambda: _limit_values(L.linear_weights, linear_labels, linear_tol),
             check_linear, limit_s=10.0, spans={"bottomk.limit": len(linear_labels)}),
        Task("finite_n", run_finite, check_finite, limit_s=10.0, spans={"bottomk.finite": 1}),
        Task("converge_families", run_families, check_families, limit_s=10.0,
             spans={"bottomk.converge": len(families)}),
        Task("converge_custom", run_custom, check_custom, limit_s=20.0,
             spans={"bottomk.converge": 1}),
        Task("mc_linear", lambda: L.limit_bottom_pmf_mc(L.linear_weights(), (1,), mc_linear,
                                                        L.RngStream(s[0])),
             check_mc_linear, limit_s=15.0, spans={"bottomk.mc": 1}),
        Task("mc_log_beta2", lambda: L.limit_bottom_pmf_mc(log2(), (1,), mc_log,
                                                           L.RngStream(s[1])),
             check_mc_log, limit_s=0.5 if tiny else 3.0, spans={"bottomk.mc": 1},
             expected_failure="timeout",
             why="WeightSequence.theta grows its cache one index at a time up to 2^21 terms"),
    ]


# ---------------------------------------------------------------------------
# chambers: exact stationary laws and exact stationary sampling
# ---------------------------------------------------------------------------

def _solve(table_factory):
    table = table_factory()
    k_mat = L.transition_matrix(table)
    return k_mat, L.stationary_exact(k_mat)


def _residual(k_mat, pi):
    return float(np.abs(pi @ k_mat - pi).max())


def _boolean_index(signs):
    bits = (np.asarray(signs) > 0).astype(np.int64)
    return bits @ (1 << np.arange(bits.shape[1] - 1, -1, -1))


def chambers(seed, ctx, tiny=False):
    g = np.random.default_rng([seed, 3])

    def weights(n):
        return L.normalize(L.WeightVector(g.uniform(0.5, 2.0, n)))

    n_small, n_large = (4, 5) if tiny else (6, 7)
    d_ehr = 4 if tiny else 10
    cycle = 4 if tiny else 12
    w_small, w_large = weights(n_small), weights(n_large)
    w8 = weights(8)
    w_bd = weights(6 if tiny else 30)
    w4 = weights(4)
    riffle_a, rows_a = (4, 100) if tiny else (8, 2000)
    riffle_b, rows_b = (5, 10) if tiny else (12, 20)
    rows_tsetlin = 200 if tiny else 20000
    d_bd, rows_ehr = (8, 100) if tiny else (64, 5000)
    s = [int(v) for v in g.integers(0, 2**63, size=8)]
    tol = 1e-10  # stationary_exact's default residual tolerance

    def check_luce(n, w):
        def check(result):
            k_mat, pi = result
            res = _residual(k_mat, pi)
            expect(res <= tol, f"tsetlin n={n}: residual {res:g}")
            err = float(np.abs(pi - _pmf_table(w, n)).max())
            expect(err <= 1e-9, f"tsetlin n={n}: stationary law off luce_pmf by {err:g}")
            return {"arrangements.residual_max": res}
        return check

    def check_uniform(result):
        k_mat, pi = result
        res = _residual(k_mat, pi)
        expect(res <= tol, f"ehrenfest: residual {res:g}")
        err = float(np.abs(pi - 1.0 / pi.size).max())
        expect(err <= 1e-12, f"ehrenfest d={d_ehr}: stationary law not uniform ({err:g})")
        return {"arrangements.residual_max": res}

    def check_coloring(result):
        k_mat, pi = result
        res = _residual(k_mat, pi)
        expect(res <= tol, f"coloring: residual {res:g}")
        signs = np.array([c.entries for c in L.enumerate_chambers("boolean", cycle)])
        # the cycle walk commutes with a global sign flip and with rotation
        for image in (-signs, np.roll(signs, 1, axis=1)):
            err = float(np.abs(pi[_boolean_index(image)] - pi).max())
            expect(err <= 1e-9, f"coloring {cycle}-cycle: stationary law not symmetric ({err:g})")
        return {"arrangements.residual_max": res}

    @_once
    def small_bd_chi_square(model):
        if model == "riffle":
            table = L.riffle_face_weights(4)
        elif model == "tsetlin":
            table = L.tsetlin_face_weights(w4)
        else:
            table = L.ehrenfest_face_weights(4)
        rows = L.brown_diaconis_sample_many(table, 20000, L.RngStream(s[5]))
        pi = L.stationary_exact(L.transition_matrix(table))
        if model == "tsetlin":
            expect(np.abs(pi - _pmf_table(w4, 4)).max() <= 1e-9, "tsetlin n=4 law")
        counts = (_rank_counts(rows, 4) if table.kind == "braid"
                  else np.bincount(_boolean_index(rows), minlength=16))
        return chi_square(counts, pi, f"{model} urn sampler at size 4")

    def check_riffle(n):
        def check(rows):
            expect(is_permutation_rows(rows, n), f"riffle n={n}: rows are not permutations")
            if n == riffle_a:
                # the inverse-riffle walk is doubly stochastic: every top card equally likely
                chi_square(np.bincount(rows[:, 0], minlength=n + 1)[1:], np.ones(n),
                           f"riffle n={n} top card")
                small_bd_chi_square("riffle")
            return {}
        return check

    def check_tsetlin_bd(rows):
        n = w_bd.n
        expect(is_permutation_rows(rows, n), "tsetlin: rows are not permutations")
        # under the Luce law the top card is label i with probability theta_i
        chi_square(np.bincount(rows[:, 0], minlength=n + 1)[1:], w_bd.weights,
                   f"tsetlin n={n} top card")
        small_bd_chi_square("tsetlin")
        return {}

    def check_ehrenfest_bd(rows):
        expect(np.all(np.abs(rows) == 1), "ehrenfest: entries outside {-1, +1}")
        # uniform stationary law: coordinates are independent fair signs
        plus = (rows > 0).sum(axis=0)
        half = rows.shape[0] / 2.0
        counts = np.concatenate([plus, rows.shape[0] - plus])
        checks.gate(float((((counts - half) ** 2) / half).sum()), plus.size,
                    f"ehrenfest d={d_bd} coordinates")
        small_bd_chi_square("ehrenfest")
        return {}

    def run_tsetlin8():
        probe = ["tsetlin-solve", json.dumps(w8.weights.tolist())]
        result = run_child(ctx, [sys.executable, CHILD] + probe, probe, limit_s=8.0,
                           mem_mib=2048)
        if result.code == MEMORY_EXIT:
            raise MemoryError("tsetlin n=8 child exceeded its memory ceiling")
        if result.code != 0:
            raise RuntimeError(f"tsetlin n=8 child exited {result.code}: {result.stderr[-400:]}")
        return result

    def check_tsetlin8(result):
        doc = json.loads(result.stdout)
        expect(doc["residual"] <= tol, f"tsetlin n=8: residual {doc['residual']:g}")
        err = float(np.abs(np.array(doc["pi"]) - _pmf_table(w8, 8)).max())
        expect(err <= 1e-9, f"tsetlin n=8: stationary law off luce_pmf by {err:g}")
        return {"arrangements.residual_max": doc["residual"]}

    solve_spans = {"arrangements.tables": 1, "arrangements.transition": 1,
                   "arrangements.stationary": 1}
    bd_spans = {"arrangements.tables": 1, "arrangements.bd": 1, "kernels.order": 1,
                "kernels.project": 1}
    edges = [(i, i % cycle + 1) for i in range(1, cycle + 1)]
    return [
        Task(f"tsetlin{n_small}_solve", lambda: _solve(lambda: L.tsetlin_face_weights(w_small)),
             check_luce(n_small, w_small), limit_s=20.0, spans=solve_spans),
        Task(f"ehrenfest{d_ehr}_solve", lambda: _solve(lambda: L.ehrenfest_face_weights(d_ehr)),
             check_uniform, limit_s=20.0, spans=solve_spans),
        Task(f"coloring{cycle}_solve",
             lambda: _solve(lambda: L.graph_coloring_face_weights(edges)),
             check_coloring, limit_s=30.0, mem_mib=2560, spans=solve_spans),
        Task(f"tsetlin{n_large}_solve", lambda: _solve(lambda: L.tsetlin_face_weights(w_large)),
             check_luce(n_large, w_large), limit_s=30.0, mem_mib=2560, spans=solve_spans),
        Task(f"riffle{riffle_a}_bd",
             lambda: L.brown_diaconis_sample_many(L.riffle_face_weights(riffle_a), rows_a,
                                                  L.RngStream(s[0])),
             check_riffle(riffle_a), limit_s=15.0, spans=bd_spans),
        Task(f"riffle{riffle_b}_bd",
             lambda: L.brown_diaconis_sample_many(L.riffle_face_weights(riffle_b), rows_b,
                                                  L.RngStream(s[1])),
             check_riffle(riffle_b), limit_s=20.0, spans=bd_spans),
        Task(f"tsetlin{w_bd.n}_bd",
             lambda: L.brown_diaconis_sample_many(L.tsetlin_face_weights(w_bd), rows_tsetlin,
                                                  L.RngStream(s[2])),
             check_tsetlin_bd, limit_s=15.0, spans=bd_spans),
        Task(f"ehrenfest{d_bd}_bd",
             lambda: L.brown_diaconis_sample_many(L.ehrenfest_face_weights(d_bd), rows_ehr,
                                                  L.RngStream(s[3])),
             check_ehrenfest_bd, limit_s=15.0, spans=bd_spans),
        Task("tsetlin8_solve", run_tsetlin8, check_tsetlin8, limit_s=8.0, mem_mib=2048,
             child=True, expected_failure="memory",
             why="transition_matrix allocates a dense 40320^2 K (12.1 GiB)"),
    ]


# ---------------------------------------------------------------------------
# cli: short `python -m lucewalks` invocations in fresh processes
# ---------------------------------------------------------------------------

def _close(a, b, rel=1e-8):
    return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=1e-15)


def cli(seed, ctx, tiny=False):
    def lcli():
        import lucewalks.cli  # checks only: set-up must not pay for it

        return lucewalks.cli

    g = np.random.default_rng([seed, 4])
    w5 = g.uniform(0.5, 2.0, 5).tolist()
    sigma = (g.permutation(5) + 1).tolist()
    w50 = g.uniform(0.5, 2.0, 50).tolist()
    w6 = g.uniform(0.5, 2.0, 6).tolist()
    w4 = g.uniform(0.5, 2.0, 4).tolist()
    s = [int(v) for v in g.integers(0, 2**63, size=16)]
    n_samples = 50 if tiny else 200
    out_dir = ctx.env["LUCEWALKS_OUTPUT_DIR"]

    def pmf_ref():
        return L.luce_pmf(w5, sigma)

    def check_pmf_json(out):
        doc = lcli().read_json_text(out)
        expect(_close(doc["pmf"], pmf_ref()), f"pmf {doc['pmf']} vs {pmf_ref()}")

    def check_pmf_csv(out):
        rows = lcli().read_csv_text(out)
        expect(_close(rows[0]["pmf"], pmf_ref()), "pmf csv mismatch")

    def check_topk(out):
        row = lcli().read_csv_text(out)[0]
        ref = L.distance_report(L.normalize(L.WeightVector(w50)), 5).to_dict()
        for key, val in ref.items():
            expect(_close(row[key], val), f"topk {key}: {row[key]} vs {val}")

    def check_urn(out):
        got = np.array([[int(v) for v in r.values()] for r in lcli().read_csv_text(out)])
        ref = L.sample_urn_many(w6, n_samples, L.RngStream(s[3]))
        expect(np.array_equal(got, ref), "sample --method urn differs from sample_urn_many")

    def check_exponential(out):
        got = np.array(lcli().read_json_text(out)["samples"])
        ref = L.sample_exponential_many(w6, n_samples, L.RngStream(s[4]))
        expect(np.array_equal(got, ref), "sample --method exponential differs from the library")

    def check_bottom_table(out):
        rows = lcli().read_csv_text(out)
        expect(len(rows) == 5, "bottom-table row count")
        for row in rows:
            label = int(row["label"])
            ref = L.limit_bottom_pmf(L.linear_weights(), (label,), tol=1e-8)
            expect(_close(row["probability"], ref), f"bottom-table label {label}")
            expect(abs(float(row["probability"]) - checks.LAST_CARD_TABLE[label - 1])
                   <= checks.LAST_CARD_ATOL, f"bottom-table label {label} vs frozen table")

    def check_converge_log(out):
        doc = lcli().read_json_text(out)
        expect(doc["x0"] == 0.5 and doc["f_at_x0"] == "infinite" and doc["converges"] is True,
               f"converge-test log beta=2: {doc}")

    def check_converge_loglog(out):
        row = lcli().read_csv_text(out)[0]
        expect(float(row["x0"]) == 1.0 and row["f_at_x0"] == "finite"
               and row["converges"] == "false", f"converge-test log-loglog: {row}")

    def check_stationary(out):
        doc = lcli().read_json_text(out)
        w = L.normalize(L.WeightVector(w4))
        expect(len(doc["stationary"]) == 24, "tsetlin n=4 has 24 chambers")
        for entry in doc["stationary"]:
            sigma4 = [int(v) for v in entry["chamber"].split(",")]
            expect(_close(entry["probability"], L.luce_pmf(w, sigma4)),
                   f"stationary {entry['chamber']}")

    def check_sample_bd(out):
        got = [r["chamber"] for r in lcli().read_csv_text(out)]
        rows = L.brown_diaconis_sample_many(L.ehrenfest_face_weights(3), n_samples,
                                            L.RngStream(s[9]))
        expect(got == [L.SignVector(r).to_string() for r in rows], "sample-bd differs")

    def check_empty(out):
        expect(out == "", "error exit printed to stdout")

    w5j, w50j, w6j, w4j = (json.dumps(w) for w in (w5, w50, w6, w4))
    invocations = [
        ("pmf_json", ["pmf", "--weights", w5j, "--sigma", ",".join(map(str, sigma)),
                      "--format", "json"], 0, check_pmf_json),
        ("pmf_csv", ["pmf", "--weights", w5j, "--sigma", ",".join(map(str, sigma)),
                     "--format", "csv"], 0, check_pmf_csv),
        ("topk_csv", ["topk", "--weights", w50j, "--normalize", "--k", "5", "--format", "csv"],
         0, check_topk),
        ("sample_urn", ["sample", "--weights", w6j, "--n-samples", str(n_samples),
                        "--method", "urn", "--format", "csv"], 0, check_urn),
        ("sample_exponential", ["sample", "--weights", w6j, "--n-samples", str(n_samples),
                                "--method", "exponential", "--format", "json"],
         0, check_exponential),
        ("bottom_table_linear", ["bottom-table", "--family", "linear", "--max-label", "5",
                                 "--tol", "1e-8", "--format", "csv"], 0, check_bottom_table),
        ("converge_log", ["converge-test", "--family", "log", "--beta", "2", "--format", "json"],
         0, check_converge_log),
        ("converge_loglog", ["converge-test", "--family", "log-loglog", "--format", "csv"],
         0, check_converge_loglog),
        ("stationary_tsetlin4", ["arrangement", "stationary", "--model", "tsetlin", "--weights",
                                 w4j, "--normalize", "--format", "json"], 0, check_stationary),
        ("sample_bd_ehrenfest3", ["arrangement", "sample-bd", "--model", "ehrenfest", "--dim",
                                  "3", "--samples", str(n_samples), "--format", "csv"],
         0, check_sample_bd),
        # README exit codes: 1 usage error, 3 precondition violation
        ("usage_error", ["sample", "--weights", w6j], 1, check_empty),
        ("precondition_error", ["topk", "--weights", "[1,2,3]", "--k", "2"], 3, check_empty),
    ]

    def make(i, name, args, want_code, check_stdout):
        argv = args + ["--seed", str(s[i])]
        manifest = os.path.join(out_dir, "run_manifest.json")

        def run():
            os.makedirs(out_dir, exist_ok=True)
            if os.path.exists(manifest):
                os.remove(manifest)
            return run_child(ctx, [sys.executable, "-m", "lucewalks"] + argv, ["cli"] + argv,
                             limit_s=CLI_LIMIT_S, mem_mib=1536, process_span="cli.process")

        def check(result):
            expect(result.code == want_code, f"exit {result.code}, want {want_code}: "
                                             f"{result.stderr.strip()[-300:]}")
            check_stdout(result.stdout)
            expect(os.path.exists(manifest), MANIFEST_MISSING)
            with open(manifest) as fh:
                doc = json.load(fh)
            expect(doc["exit_code"] == want_code, "manifest exit code")
            return {"cli.manifest_duration_s": doc["duration_s"],
                    "cli.stdout_bytes": len(result.stdout.encode())}

        task = Task(f"cli_{name}", run, check, limit_s=CLI_LIMIT_S, mem_mib=1536, child=True,
                    spans={"cli.process": 1, "cli.import": 1, "cli.main": 1})
        if name == "usage_error":
            task.expected_failure = f"check: {MANIFEST_MISSING}"
            task.why = "cli.main returns on a usage error before it writes the manifest"
        return task

    return [make(i, *inv) for i, inv in enumerate(invocations)]


WORKLOADS = {"draws": draws, "bottom": bottom, "chambers": chambers, "cli": cli}
