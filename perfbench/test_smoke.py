"""Smoke test for the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload once untraced and once traced, perturbs a frozen
reference value, and checks the self-time arithmetic and the binding-site
patching of the tracer.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert out.returncode == 0, out.stderr[-3000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_reported_with_its_unit(workload, trace, section):
    result = run_benchmark(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.fixture
def alarm_handler():
    previous = signal.signal(signal.SIGALRM, worker._on_alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


def test_perturbed_reference_fails_the_task(tmp_path, monkeypatch, alarm_handler):
    ctx = workloads.Context(work=str(tmp_path), env=dict(os.environ))
    tasks = [t for t in workloads.bottom(7, ctx, tiny=True) if t.name == "linear_table"]
    bye = {"rss_self_mib": 1.0, "rss_children_mib": 1.0}

    good = worker.run_pass(tasks, ctx)
    assert run.end_to_end([good["records"]], [1.0], bye, "bottom")["pass_frac"] == 1.0

    table = list(checks.LAST_CARD_TABLE)
    table[0] += 1e-3
    monkeypatch.setattr(checks, "LAST_CARD_TABLE", table)
    bad = worker.run_pass(tasks, ctx)
    record = bad["records"][0]
    assert record["status"] == "check" and not record["expected"]
    assert record["charged"] == tasks[0].limit_s
    assert run.end_to_end([bad["records"]], [1.0], bye, "bottom")["pass_frac"] < 1.0


def test_self_time_arithmetic():
    spans = [
        ["task", 0.0, 10.0, None, 0],
        ["a", 1.0, 5.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["c", 2.5, 4.0, 1, 0],    # overlaps b: a's children cover [2, 4]
        ["d", 6.0, 12.0, 0, 0],   # outlives its parent: it covers only [6, 10] of it
    ]
    assert tracer.self_times(spans) == pytest.approx([2.0, 2.0, 1.0, 1.5, 6.0])
    assert tracer.self_time_by_name(spans + [["b", 20.0, 21.5, None, 1]])["b"] == \
        pytest.approx(2.5)


def test_wrappers_patch_every_binding_site():
    import lucewalks.bottomk
    import lucewalks.cli

    original = lucewalks.bottomk.limit_bottom_pmf
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = lucewalks.bottomk.limit_bottom_pmf
        assert wrapped is not original
        assert lucewalks.cli.limit_bottom_pmf is wrapped
        assert lucewalks.limit_bottom_pmf is wrapped
        t.task_id = 0
        lucewalks.limit_bottom_pmf(lucewalks.linear_weights(), (1,), tol=1e-6)
        counts = tracer.span_counts(t.spans, 0)
        assert counts["bottomk.limit"] == 1 and counts["bottomk.quad"] >= 1
        assert t.counts["bottomk.integrand_evals"] == counts["bottomk.integrand"] > 0
    finally:
        t.uninstall()
    assert lucewalks.cli.limit_bottom_pmf is original
