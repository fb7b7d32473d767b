"""Layered benchmark for lucewalks.

    python3 perfbench/run.py --workload {draws,bottom,chambers,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its ``src``.
One worker process (``worker.py``) runs the workload's fixed task list in a
closed loop, one task at a time, with BLAS pinned to ``min(2, nproc)``
threads.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it (``info:``)
records the environment, the task count and every failure.

``--trace 0`` spawns the worker three times and reports the median set-up
time, then runs the task list in rounds for ``--seconds`` seconds and reports
the end-to-end metrics named in BENCHMARK.json.  Each task's time is the
mean of its rounds: ``wall_s`` is the sum of those means and ``task_p50_ms``
their median.  A shared host runs the same code fast and slow in spells of
seconds to minutes; a mean over the whole run averages the spells it meets,
where a median of a few rounds lands on one of them.  ``--trace 1`` runs the list once
untraced and once traced and reports the per-layer metrics; the spans are
written to ``perfbench/.work/<workload>-<seed>/spans.json``.

A task that fails is charged its time limit and is not run again in later
rounds.  ``pass_frac`` is the share of the list's tasks that never failed.
``failed`` counts failed attempts other than those of known defects, which
are declared with their cause in ``workloads.py`` and named in
BENCHMARK.json; those still lower ``pass_frac`` and are charged their time
limit in ``wall_s``, so a fix shows as a gain.
"""

import argparse
import json
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
N_SETUP = 3
WORKER_AS_MIB = 3072  # address-space ceiling of the worker; tasks lower it further
READY_TIMEOUT_S = 120


class Worker:
    """The worker process and its line protocol (see worker.py)."""

    def __init__(self, args, env, work):
        argv = [sys.executable, str(WORKER), "--workload", args.workload,
                "--seed", str(args.seed), "--work", str(work)]
        if args.tiny:
            argv.append("--tiny")
        start = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=env, cwd=ROOT)
        try:
            ceiling = WORKER_AS_MIB << 20
            resource.prlimit(self.proc.pid, resource.RLIMIT_AS, (ceiling, ceiling))
            self.ready = self._read(READY_TIMEOUT_S)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - start

    def _read(self, timeout):
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise RuntimeError(f"worker gave no answer within {timeout:.0f} s")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def request(self, command, timeout):
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._read(timeout)

    def close(self):
        bye = self.request("quit", 60)
        self.proc.wait(timeout=60)
        return bye

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def child_env(src, work):
    threads = str(min(2, len(os.sched_getaffinity(0))))
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(src),
        "OPENBLAS_NUM_THREADS": threads,
        "OMP_NUM_THREADS": threads,
        "MKL_NUM_THREADS": threads,
        "LUCEWALKS_OUTPUT_DIR": str(work / "cli"),
    })
    return env


def host_facts(env):
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "blas_threads": int(env["OPENBLAS_NUM_THREADS"])}


def pass_wall(p):
    return sum(r["charged"] for r in p["records"])


def measure(worker, seconds):
    """Run the task list round after round until ``seconds`` are used.

    The first round always runs whole.  After it, a task runs only if it
    ends within ``seconds`` at its last time; the first one that would not
    ends the run, so earlier tasks have at most one sample more.  A task that
    has failed is skipped: it is charged its limit whatever it does.
    Returns each task's records, in task order, and the number of rounds
    started.
    """
    limits = worker.ready["limits"]
    samples = [[] for _ in limits]
    start = time.perf_counter()
    rounds = 0
    while True:
        running = [i for i, rs in enumerate(samples) if not rs or rs[-1]["status"] == "ok"]
        if not running:
            return samples, rounds
        for i in running:
            if rounds and (time.perf_counter() - start + samples[i][-1]["elapsed"] > seconds):
                return samples, rounds + (i != running[0])
            samples[i].append(worker.request(f"task {i}", limits[i] + 120))
        rounds += 1


def task_cost(records):
    """The mean time of a task's rounds, or its limit once it has failed."""
    if records[-1]["status"] != "ok":
        return records[-1]["charged"]
    return statistics.fmean(r["elapsed"] for r in records)


def end_to_end(samples, setups, bye, workload):
    costs = [task_cost(records) for records in samples]
    rss = bye["rss_children_mib"]
    if workload != "cli":
        rss = max(rss, bye["rss_self_mib"])
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(costs),
        "task_p50_ms": 1000.0 * statistics.median(costs),
        "peak_rss_mib": rss,
        "pass_frac": sum(records[-1]["status"] == "ok" for records in samples) / len(samples),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "lucewalks" / "__init__.py").is_file():
        print(f"run.py: no lucewalks sources under {src}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = HERE / ".work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "cli").mkdir(parents=True)
    env = child_env(src, work)

    worker = None
    try:
        setups = []
        for _ in range(1 if args.trace else N_SETUP):
            if worker is not None:
                worker.close()
            worker = Worker(args, env, work)
            setups.append(worker.setup_s)
        rounds = 1
        if args.trace:
            pass_timeout = sum(worker.ready["limits"]) + 120
            passes = [worker.request(f"pass {i}", pass_timeout) for i in (0, 1)]
            samples = [[a, b] for a, b in zip(passes[0]["records"], passes[1]["records"])]
            values = dict(passes[1]["layers"])
            values["trace.overhead_s"] = pass_wall(passes[1]) - pass_wall(passes[0])
            problems = passes[1]["trace_problems"]
            metric_spec = spec["per_layer"]
        else:
            samples, rounds = measure(worker, args.seconds)
            problems = []
            metric_spec = spec["end_to_end"]
        bye = worker.close()
        if bye["env"]["lucewalks"] != str(src / "lucewalks"):
            raise RuntimeError(f"imported lucewalks from {bye['env']['lucewalks']}")
        if not args.trace:
            values = end_to_end(samples, setups, bye, args.workload)
    finally:
        if worker is not None:
            worker.kill()

    records = [r for rs in samples for r in rs]
    unexpected = [r for r in records if r["status"] != "ok" and not r["expected"]]
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": {**host_facts(env), **bye["env"]},
        "rounds": rounds, "tasks": len(samples),
        "task_ms": {rs[0]["task"]: [round(1000 * r["elapsed"], 3) for r in rs]
                    for rs in samples},
        "failures": sorted({f"{r['task']}: {r['status']}"
                            f"{' (expected)' if r['expected'] else ''} {r['message']}".strip()
                            for r in records if r["status"] != "ok"}),
        "trace_problems": problems,
    }
    print("info: " + json.dumps(info))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_spec}
    print(json.dumps({"correct": not unexpected and not problems, "attempted": len(records),
                      "failed": len(unexpected), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
