"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line; run `pytest -s tests/test_acceptance.py`
to see them.  Tolerances are pinned here and nowhere looser.
"""

import itertools
import math
import time

import numpy as np
import pytest

from lucewalks import (
    RngStream,
    SignVector,
    all_permutations,
    brown_diaconis_sample_many,
    bruhat_covers,
    collision_lambda,
    convergence_test,
    constant_weights,
    d_inf_bound,
    d_inf_exact,
    ehrenfest_face_weights,
    elementary_symmetric,
    enumerate_chambers,
    finite_n_bottom_pmf,
    graph_coloring_face_weights,
    limit_bottom_pmf,
    linear_weights,
    log_loglog_weights,
    log_weights,
    luce_pmf,
    normalize,
    permutation_rank_many,
    prefix_prob_p,
    prefix_prob_q,
    project_boolean,
    restrict,
    sample_exponential_many,
    sample_urn_many,
    stationary_exact,
    transition_matrix,
    tsetlin_face_weights,
    tv_exact,
    tv_uniform_exact,
)
from lucewalks import bottomk
from lucewalks.cli import main, read_csv_text

LAST_CARD_TABLE = [
    0.516094,
    0.213212,
    0.107310,
    0.0597505,
    0.0354888,
    0.0220716,
    0.0142167,
    0.00941619,
    0.00638121,
    0.00440862,
]


def _report(num, label, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    line = f"{verdict} criterion {num}: {label}"
    if detail and not ok:
        line = f"{line} [{detail}]"
    print(line)
    assert ok, line


def _empirical_pmf(samples, n):
    counts = np.bincount(permutation_rank_many(samples), minlength=math.factorial(n))
    return counts / counts.sum()


def _exact_pmf(w, n):
    return np.array([luce_pmf(w, tuple(p)) for p in all_permutations(n)])


class TestAcceptance:
    def test_criterion_01_last_card_table_cli(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        start = time.perf_counter()
        code = main(
            ["bottom-table", "--family", "linear", "--max-label", "10",
             "--tol", "1e-6", "--format", "csv"]
        )
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        rows = read_csv_text(out)
        values = [float(r["probability"]) for r in rows]
        worst = max(abs(v - t) for v, t in zip(values, LAST_CARD_TABLE))
        ok = code == 0 and len(values) == 10 and worst <= 1e-5 and elapsed < 10.0
        _report(1, "bottom-table reproduces the ten reference values within 1e-5 "
                   "in under 10 s", ok,
                f"exit={code} worst={worst:.2e} elapsed={elapsed:.2f}s")

    def test_criterion_02_tsetlin_stationary_is_luce(self, np_rng):
        worst = 0.0
        for n in (3, 4, 5):
            perms = all_permutations(n)
            for _ in range(20):
                w = normalize(np_rng.uniform(0.1, 1.0, size=n)).weights
                pi = stationary_exact(transition_matrix(tsetlin_face_weights(w)))
                exact = np.array([luce_pmf(w, tuple(p)) for p in perms])
                worst = max(worst, float(np.abs(pi - exact).max()))
        _report(2, "move-to-front stationary law equals the sequential-draw pmf "
                   "pointwise within 1e-10", worst <= 1e-10, f"worst={worst:.2e}")

    def test_criterion_03_sampler_agreement(self):
        w = np.array([0.4, 0.3, 0.2, 0.1])
        start = time.perf_counter()
        urn = _empirical_pmf(sample_urn_many(w, 1_000_000, RngStream(101)), 4)
        expo = _empirical_pmf(sample_exponential_many(w, 1_000_000, RngStream(103)), 4)
        elapsed = time.perf_counter() - start
        exact = _exact_pmf(w, 4)
        tv_urn = 0.5 * float(np.abs(urn - exact).sum())
        tv_expo = 0.5 * float(np.abs(expo - exact).sum())
        tv_cross = 0.5 * float(np.abs(urn - expo).sum())
        ok = (tv_urn <= 0.005 and tv_expo <= 0.005 and tv_cross <= 0.005
              and elapsed < 30.0)
        _report(3, "urn and exponential samplers agree with the exact pmf and "
                   "each other within TV 0.005 at 1e6 draws in under 30 s", ok,
                f"urn={tv_urn:.4f} expo={tv_expo:.4f} cross={tv_cross:.4f} "
                f"elapsed={elapsed:.1f}s")

    def test_criterion_04_sup_ratio_bound_dominates(self, np_rng):
        # The closed-form bound only dominates while the k-1 heaviest weights
        # carry total mass <= 1/2; outside that regime exact values can exceed
        # it (see the explicit gap test in test_topk), so the sweep samples
        # inside the regime where domination is provable.
        violations = 0
        checked = 0
        while checked < 100:
            n = int(np_rng.integers(3, 9))
            w = np_rng.dirichlet(np.ones(n))
            if w.max() > 0.5:
                continue
            k = int(np_rng.integers(2, min(4, n) + 1))
            if np.sort(w)[::-1][: k - 1].sum() > 0.5:
                continue
            if d_inf_exact(w, k) > d_inf_bound(w, k) + 1e-12:
                violations += 1
            checked += 1
        half_heavy = np.array([0.5, 0.1, 0.1, 0.1, 0.1, 0.1])
        exact_half = d_inf_exact(half_heavy, 2)
        ok = violations == 0 and exact_half == 0.5
        _report(4, "closed-form sup-ratio bound dominates the exact value on "
                   "100 admissible weight vectors; the half-heavy example "
                   "returns exactly 0.5", ok,
                f"violations={violations} half-heavy={exact_half!r}")

    def test_criterion_05_tv_identity(self, np_rng):
        worst = 0.0
        for n in range(2, 9):
            w = np_rng.dirichlet(np.ones(n))
            for k in range(1, min(4, n) + 1):
                brute = 0.0
                for tup in itertools.product(range(1, n + 1), repeat=k):
                    p = prefix_prob_p(w, tup) if len(set(tup)) == k else 0.0
                    brute += abs(p - prefix_prob_q(w, tup))
                worst = max(worst, abs(tv_exact(w, k) - 0.5 * brute))
        _report(5, "symmetric-polynomial TV identity matches brute-force tuple "
                   "enumeration within 1e-12 for n <= 8, k <= 4",
                worst <= 1e-12, f"worst={worst:.2e}")

    def test_criterion_06_poisson_trend(self):
        # asymptotic claim, checked as a trend at n = 1e4, not an equality
        n = 10_000
        w = np.full(n, 1.0 / n)
        worst = 0.0
        for k in (100, 142, 201):
            lam = collision_lambda(w, k)
            gap = abs(tv_uniform_exact(n, k) - (1.0 - math.exp(-lam)))
            worst = max(worst, gap)
        ok = worst <= 0.05
        _report(6, "uniform-weight TV tracks the collision-limit value within "
                   "0.05 at n = 1e4 for lambda near 0.5, 1, 2", ok,
                f"worst={worst:.3f}")

    def test_criterion_07_convergence_classifier(self):
        reports = [
            convergence_test(linear_weights()),
            convergence_test(constant_weights()),
            convergence_test(log_weights(1.0)),
            convergence_test(log_loglog_weights()),
        ]
        got = [r.converges for r in reports]
        analytic = all(r.method == "analytic" for r in reports)
        ok = got == [True, False, True, False] and analytic
        _report(7, "the four built-in families classify as converges, diverges, "
                   "converges, diverges via the analytic route", ok,
                f"got={got} analytic={analytic}")

    def test_criterion_08_stationary_sampler(self):
        w = np.array([1 / 2, 1 / 3, 1 / 6])
        table = tsetlin_face_weights(w)
        rows = brown_diaconis_sample_many(table, 100_000, RngStream(211))
        hist = np.bincount(permutation_rank_many(rows), minlength=6)
        tv_braid = 0.5 * float(np.abs(hist / hist.sum() - _exact_pmf(w, 3)).sum())

        etable = ehrenfest_face_weights(3)
        erows = brown_diaconis_sample_many(etable, 100_000, RngStream(223))
        bits = (erows > 0).astype(np.int64)
        idx = bits @ (1 << np.arange(2, -1, -1))
        ehist = np.bincount(idx, minlength=8)
        tv_bool = 0.5 * float(np.abs(ehist / ehist.sum() - 1.0 / 8.0).sum())

        ok = tv_braid <= 0.01 and tv_bool <= 0.01
        _report(8, "single-pass stationary sampler lands within TV 0.01 of the "
                   "exact law for both chamber kinds", ok,
                f"braid={tv_braid:.4f} bool={tv_bool:.4f}")

    def test_criterion_09_path_coloring_order(self):
        ok = True
        detail = []
        for edges, nv in (
            ([(1, 2), (2, 3), (3, 4)], 4),
            ([(1, 2), (2, 3), (3, 4), (4, 5)], 5),
        ):
            table = graph_coloring_face_weights(edges)
            pi = stationary_exact(transition_matrix(table))
            chambers = enumerate_chambers("boolean", nv)
            lookup = {c: pi[i] for i, c in enumerate(chambers)}
            flip_gap = max(
                abs(lookup[c] - lookup[SignVector(tuple(-e for e in c.entries))])
                for c in chambers
            )
            alt = SignVector(tuple(1 if i % 2 == 0 else -1 for i in range(nv)))
            alt_mass = max(
                lookup[alt], lookup[SignVector(tuple(-e for e in alt.entries))]
            )
            const = lookup[SignVector((1,) * nv)]
            dominated = all(
                const > lookup[c] + 1e-12
                for c in chambers
                if len(set(c.entries)) > 1
            )
            ok = ok and flip_gap <= 1e-12 and alt_mass <= 1e-12 and dominated
            detail.append(f"n={nv}: flip={flip_gap:.1e} alt={alt_mass:.1e} "
                          f"dom={dominated}")
        _report(9, "path-graph coloring walk is flip-invariant, kills both "
                   "alternating colorings, and puts the constant colorings on "
                   "top", ok, "; ".join(detail))

    def test_criterion_10_finite_to_limit(self):
        target = 0.516094
        vals = [
            finite_n_bottom_pmf(np.arange(1.0, n + 1.0), (1,))
            for n in (10, 20, 40, 80)
        ]
        monotone = all(a > b for a, b in zip(vals, vals[1:]))
        approaches = all(v > target - 1e-12 for v in vals)
        close = abs(vals[-1] - target) <= 1e-3
        ok = monotone and approaches and close
        _report(10, "finite-deck bottom-card value decreases monotonically to "
                    "the infinite-deck limit, landing within 1e-3 at n = 80",
                ok, f"vals={['%.6f' % v for v in vals]}")

    def test_criterion_11_property_suites(self, np_rng, monkeypatch):
        failures = []

        # one extra inversion never raises the pmf under descending weights
        for _ in range(5):
            w = np.sort(np_rng.uniform(0.1, 1.0, size=5))[::-1]
            for sigma in all_permutations(5):
                p = luce_pmf(w, sigma)
                for child in bruhat_covers(sigma):
                    if p < luce_pmf(w, child) - 1e-15:
                        failures.append("bruhat")

        # subset marginals equal the restricted model
        for n in (4, 5, 6):
            w = np_rng.uniform(0.1, 1.0, size=n)
            labels = list(range(1, n + 1))
            subset = tuple(sorted(
                np_rng.choice(labels, size=3, replace=False).tolist()
            ))
            sub = restrict(w, subset)
            pos = {lab: j + 1 for j, lab in enumerate(subset)}
            marg = {tau: 0.0 for tau in itertools.permutations(subset)}
            for sigma in itertools.permutations(labels):
                rel = tuple(lab for lab in sigma if lab in set(subset))
                marg[rel] += luce_pmf(w, sigma)
            for tau, p in marg.items():
                local = tuple(pos[lab] for lab in tau)
                if abs(p - luce_pmf(sub, local)) > 1e-10:
                    failures.append("marginal-restriction")

        # uniform weights minimize the exact TV
        for n, k in ((5, 2), (7, 3), (10, 4)):
            base = tv_exact(np.full(n, 1.0 / n), k)
            for _ in range(50):
                w = np_rng.dirichlet(np.ones(n))
                if base > tv_exact(w, k) + 1e-15:
                    failures.append("schur")

        # projecting twice onto the same face is a no-op
        for _ in range(200):
            d = int(np_rng.integers(3, 7))
            c = SignVector(tuple(np_rng.choice([-1, 1], size=d).tolist()))
            f = SignVector(tuple(np_rng.choice([-1, 0, 1], size=d).tolist()))
            once = project_boolean(c, f)
            if project_boolean(once, f) != once or not once.is_chamber:
                failures.append("idempotence")

        # doubling the truncation floor never moves a certified value
        for seq, a in ((linear_weights(), (1,)), (log_weights(2.0), (1,))):
            base = limit_bottom_pmf(seq, a, tol=1e-8)
            for m in (128, 256):
                with monkeypatch.context() as patch:
                    patch.setattr(bottomk, "_HEAD_START", m)
                    if abs(limit_bottom_pmf(seq, a, tol=1e-8) - base) >= 1e-8:
                        failures.append("truncation")

        _report(11, "property suites (inversion monotonicity, subset marginals, "
                    "uniform minimality, projection idempotence, truncation "
                    "stability) report zero counterexamples",
                not failures, f"failures={sorted(set(failures))}")
