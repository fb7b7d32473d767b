"""Benchmark worker: one process that runs one task at a time, closed loop.

    python3 worker.py --workload NAME --seed N --work DIR [--tiny]

Imports ``lucewalks`` (from ``PYTHONPATH``, which ``run.py`` points at the
checkout's ``src``), builds the workload's inputs from the seed, then prints
one JSON line ``{"ready": true, ...}``.  It then reads commands on stdin, one per
line, and answers each with one JSON line:

    task I            run task I of the list once, untraced; answer its record
    pass 0 | pass 1   run the task list once, untraced or traced
    quit              report peak memory and versions, write the trace, exit

Library output that reaches stdout is redirected to stderr so it cannot
corrupt the protocol.  Each task runs under an interval timer (a task over
its limit is interrupted with ``TaskTimeout``) and an address-space ceiling
lowered to the task's ``mem_mib`` for its duration; tasks that run in a
child process get both limits on the child instead.
"""

import argparse
import importlib.util
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from collections import defaultdict

import lucewalks
import numpy

import tracer as tracing
import workloads
from checks import CheckFailure
from workloads import TaskTimeout

# per-layer metrics that aggregate a check measure other than by its maximum
MEASURE_AGGREGATES = {"cli.manifest_duration_s": statistics.median, "cli.stdout_bytes": sum}
SPAN_SELF_TIMES = ("kernels.order", "kernels.project", "core.sample_urn",
                   "core.sample_exponential", "bottomk.limit", "bottomk.quad",
                   "bottomk.integrand", "bottomk.mc", "bottomk.converge", "arrangements.tables",
                   "arrangements.transition", "arrangements.stationary", "arrangements.bd")
TIMED_LAYERS = ("core", "kernels", "topk", "bottomk", "arrangements", "cli")
COUNTERS = ("kernels.order.cells", "kernels.project.cells", "core.rows", "topk.terms",
            "bottomk.integrand_evals", "bottomk.mc.samples", "arrangements.bd.rows",
            "arrangements.matrix_mib")


def _on_alarm(_signum, _frame):
    raise TaskTimeout


def run_task(task, ctx):
    """Run one task under its limits, then check its output.

    Returns the task record and the check's measures.  A failed task is
    charged its time limit.
    """
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if not task.child:
        ceiling = task.mem_mib << 20
        if hard != resource.RLIM_INFINITY:
            ceiling = min(ceiling, hard)
        resource.setrlimit(resource.RLIMIT_AS, (ceiling, hard))
    status, message, result = "ok", "", None
    start = time.perf_counter()
    try:
        if not task.child:
            signal.setitimer(signal.ITIMER_REAL, task.limit_s)
        try:
            result = task.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except TaskTimeout:
        status = "timeout"
    except MemoryError as exc:
        status, message = "memory", str(exc)
    except Exception as exc:  # a failing task is counted, the loop goes on
        status, message = "error", f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    if status == "ok" and elapsed > task.limit_s:
        status = "timeout"
    measures = {}
    if status == "ok":
        tracer = ctx.tracer
        was_active = tracer is not None and tracer.active
        if was_active:
            tracer.active = False
        try:
            measures = task.check(result) or {}
        except CheckFailure as exc:
            status, message = "check", str(exc)
        except Exception as exc:  # malformed output is a failed check
            status, message = "check", f"check raised {type(exc).__name__}: {exc}"
        finally:
            if was_active:
                tracer.active = True
    record = {
        "task": task.name,
        "status": status,
        "elapsed": elapsed,
        "charged": elapsed if status == "ok" else task.limit_s,
        "message": message,
    }
    record["expected"] = (status != "ok" and task.expected_failure is not None
                          and describe(record).startswith(task.expected_failure))
    if record["expected"]:
        record["message"] = f"{message} ({task.why})".lstrip()
    return record, measures


def describe(record):
    """``status`` or ``status: message``, the form ``Task.expected_failure`` prefixes."""
    return f"{record['status']}: {record['message']}" if record["message"] else record["status"]


def run_pass(tasks, ctx, tracer=None):
    """Run the task list once; with ``tracer``, record spans around each task."""
    records = []
    measures = defaultdict(list)
    for task_id, task in enumerate(tasks):
        sid = None
        if tracer is not None:
            tracer.task_id = task_id
            sid = tracer.open(f"task.{task.name}")
        try:
            record, task_measures = run_task(task, ctx)
        finally:
            if sid is not None:
                tracer.close(sid)
        records.append(record)
        for key, value in task_measures.items():
            measures[key].append(value)
    out = {"records": records, "measures": dict(measures)}
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, records, measures)
        out["trace_problems"] = span_problems(tracer, tasks, records)
    return out


def span_problems(tracer, tasks, records):
    """Cross-check span counts against what each completed task must have called."""
    problems = []
    for task_id, (task, record) in enumerate(zip(tasks, records)):
        if record["status"] != "ok":
            continue
        seen = tracing.span_counts(tracer.spans, task_id)
        for name, want in task.spans.items():
            if seen[name] != want:
                problems.append(f"{task.name}: {seen[name]} {name} spans, want {want}")
    return problems


def _cli_timings(spans):
    children = defaultdict(dict)
    for name, start, end, parent, _task in spans:
        if parent is not None and name in ("cli.import", "cli.main"):
            children[parent][name] = end - start
    rows = []
    for sid, (name, start, end, _parent, _task) in enumerate(spans):
        if name == "cli.process":
            imp = children[sid].get("cli.import", 0.0)
            main = children[sid].get("cli.main", 0.0)
            rows.append((end - start, imp, main, end - start - imp - main))
    if not rows:
        return {}
    cols = zip(*rows)
    keys = ("cli.process_s", "cli.import_s", "cli.main_s", "cli.startup_s")
    return {k: statistics.median(c) for k, c in zip(keys, cols)}


def layer_metrics(tracer, records, measures):
    """Per-layer numbers of one traced pass (0 where a layer did no work)."""
    by_name = tracing.self_time_by_name(tracer.spans)
    out = {f"{name}.self_s": by_name.get(name, 0.0) for name in SPAN_SELF_TIMES}
    layer_self = {layer: sum(v for k, v in by_name.items() if k.split(".")[0] == layer)
                  for layer in TIMED_LAYERS}
    out.update({f"{layer}.self_s": v for layer, v in layer_self.items()})
    out.update({name: tracer.counts.get(name, 0) for name in COUNTERS})
    out.update({f"{layer}.errors": tracer.errors.get(layer, 0) for layer in tracing.LAYERS})
    for key in ("bottomk.err_over_tol", "bottomk.mc.max_z", "arrangements.residual_max",
                "cli.manifest_duration_s", "cli.stdout_bytes"):
        values = measures.get(key)
        out[key] = MEASURE_AGGREGATES.get(key, max)(values) if values else 0
    out.update({k: 0.0 for k in ("cli.process_s", "cli.import_s", "cli.main_s",
                                 "cli.startup_s")})
    out.update(_cli_timings(tracer.spans))
    traced_wall = sum(r["elapsed"] for r in records)
    out["trace.coverage"] = sum(layer_self.values()) / traced_wall
    out["trace.spans"] = len(tracer.spans)
    return out


def environment():
    import scipy  # after set-up: the package may not need it at import

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "backend": lucewalks.kernels.BACKEND,
        "lucewalks": os.path.dirname(os.path.abspath(lucewalks.__file__)),
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    protocol = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    signal.signal(signal.SIGALRM, _on_alarm)
    ctx = workloads.Context(work=args.work, env=dict(os.environ))
    tasks = workloads.WORKLOADS[args.workload](args.seed, ctx, tiny=args.tiny)

    def send(obj):
        protocol.write(json.dumps(obj) + "\n")
        protocol.flush()

    send({"ready": True, "tasks": [t.name for t in tasks],
          "limits": [t.limit_s for t in tasks]})
    tracer = None
    for line in sys.stdin:
        command = line.split()
        if len(command) == 2 and command[0] == "task":
            send(run_task(tasks[int(command[1])], ctx)[0])
        elif command == ["pass", "0"]:
            send(run_pass(tasks, ctx))
        elif command == ["pass", "1"]:
            if tracer is None:
                tracer = tracing.Tracer()
                tracer.install()
                ctx.tracer = tracer
            send(run_pass(tasks, ctx, tracer))
        elif command == ["quit"]:
            if tracer is not None:
                spans = [dict(zip(("name", "start", "end", "parent", "task_id"), s))
                         for s in tracer.spans]
                with open(os.path.join(args.work, "spans.json"), "w") as fh:
                    json.dump({"workload": args.workload, "seed": args.seed,
                               "tasks": [t.name for t in tasks], "spans": spans}, fh)
            own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
            send({"rss_self_mib": own, "rss_children_mib": children, "env": environment()})
            return 0
        else:
            raise SystemExit(f"worker: unknown command {line!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
