"""Command line interface.

Subcommands::

    pmf            probability of one draw order under given weights
    sample         permutations from the urn or exponential-clock sampler
    topk           distance diagnostics for the first k draws
    bottom-table   limiting bottom-card probabilities for a weight family
    converge-test  classify whether the reversed order has a limit law
    arrangement    chamber walks: sim / stationary / sample-bd

Weight specs (--weights) are JSON, inline or in a file: a list ``[1,2,3]``,
``{"weights": [...]}``, or ``{"family": F, "n": N}`` with F ``uniform``,
``sukhatme`` (``"orientation"``, default descending) or ``zipf`` (exponent
``"s"``, default 1).  A file may hold whitespace-separated numbers instead.
The names ``uniform``, ``sukhatme-asc``, ``sukhatme-desc`` and ``zipf``, with
1 <= --n <= 10**7 and (``zipf`` only) --zipf-s, stand for the object spec.
``linear``, ``constant``, ``log`` and ``log-loglog`` are the sequence families
of bottom-table (--max-label at most 1000) and converge-test (--family).  A
flag that the command or the arrangement model does not read is refused (exit
3).  Labels must be integers.  Numbers print with 9 significant digits.
Every run logs its seed to stderr and writes a ``run_manifest.json`` sidecar
(directory from ``LUCEWALKS_OUTPUT_DIR``, default the working directory).

Exit codes: 0 success, 1 usage error, 2 numerical failure (tolerance not
met), 3 precondition violation, 4 internal error (out of memory, or any other
unexpected exception).
"""

import argparse
import csv
import itertools
import json
import os
import sys
import time
import traceback
import warnings

import numpy as np

from . import __version__, kernels
from .arrangements import (ChamberChain, Permutation, SignVector,
                           brown_diaconis_sample_many, ehrenfest_face_weights,
                           enumerate_chambers, graph_coloring_face_weights,
                           riffle_face_weights, stationary_exact, transition_matrix,
                           tsetlin_face_weights, walk_step)
from .bottomk import SEQUENCE_FAMILIES, convergence_test, limit_bottom_pmf
from .core import (WeightVector, _as_int, _check_tol, luce_pmf, normalize, sample_urn_many,
                   sukhatme_weights)
from .exceptions import DefectiveMassWarning, LucewalksError, PreconditionError, \
    ToleranceError
from .rng import RngStream, _entropy_seed
from .topk import distance_report

__all__ = ["main", "read_csv_text", "read_json_text", "read_jsonl_text",
           "resolve_weight_vector", "resolve_weight_sequence"]

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _f9(x):
    """Round a float to 9 significant digits (the CLI output precision)."""
    return float(f"{float(x):.9g}")


def _round9(obj):
    if isinstance(obj, float):
        return _f9(obj)
    if isinstance(obj, dict):
        return {k: _round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round9(v) for v in obj]
    return obj


def _cell(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.9g}"
    return str(v)


def _emit_csv(header, rows):
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(v) for v in row])


def _emit_json(obj):
    json.dump(_round9(obj), sys.stdout, separators=(", ", ": "))
    sys.stdout.write("\n")


def _emit_record(fmt, record):
    """One record: a JSON object, or a one-row CSV table headed by its keys."""
    if fmt == "json":
        _emit_json(record)
    else:
        _emit_csv(list(record), [list(record.values())])


# ---------------------------------------------------------------------------
# round-trip readers (the tool can re-parse everything it prints)
# ---------------------------------------------------------------------------

def read_csv_text(text):
    """Rows of a CLI CSV output as a list of header-keyed dicts of strings."""
    lines = text.splitlines()
    if not lines:
        return []
    rows = list(csv.reader(lines))
    header = rows[0]
    return [dict(zip(header, r)) for r in rows[1:]]


def read_json_text(text):
    return json.loads(text) if text.strip() else None


def read_jsonl_text(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


# ---------------------------------------------------------------------------
# weight specs
# ---------------------------------------------------------------------------

# a family spec's n above this is refused before its weights are allocated (80 MB)
_FAMILY_N_MAX = 10**7
# bottom-table makes one certified quadrature per label, 2-3 ms each at the default tol
_MAX_LABEL_MAX = 1000

# a family name given to --weights stands for this object spec plus --n and --zipf-s
_NAMED_SPECS = {"uniform": {"family": "uniform"}, "zipf": {"family": "zipf"},
                "sukhatme-asc": {"family": "sukhatme", "orientation": "ascending"},
                "sukhatme-desc": {"family": "sukhatme", "orientation": "descending"}}


def _parse_spec(text, source):
    """Spec text, inline or from a file: JSON, or whitespace-separated numbers."""
    text = text.strip()
    try:
        if text.startswith(("[", "{")):
            return json.loads(text)
        return [float(t) for t in text.split()]
    except ValueError as e:  # json.JSONDecodeError is a ValueError
        raise PreconditionError(f"weight spec: cannot parse {source}: {e}") from None


def _vector_from_spec(spec):
    """A parsed spec (list, {"weights": ...} or {"family": ..., "n": ...}) as a WeightVector."""
    if isinstance(spec, list):
        return WeightVector(spec)
    if "weights" in spec:
        return WeightVector(spec["weights"])
    fam = spec.get("family")
    if fam is None:
        raise PreconditionError("object needs 'weights' or 'family'")
    n = spec.get("n")
    n = None if n is None else _as_int(n, "n")
    if n is None or n < 1:
        raise PreconditionError(f"family {fam!r} needs n >= 1 (--n), got {n}")
    if n > _FAMILY_N_MAX:
        raise PreconditionError(f"family {fam!r} is capped at n = {_FAMILY_N_MAX}, got {n}")
    if fam == "uniform":
        return WeightVector(np.full(n, 1.0 / n))
    if fam == "sukhatme":
        return sukhatme_weights(n, spec.get("orientation", "descending"))
    if fam == "zipf":
        s = float(spec.get("s", 1.0))
        with np.errstate(over="ignore"):  # k ** s = inf gives weight 0, which is refused
            weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
        return WeightVector(weights)
    raise PreconditionError(f"unknown family {fam!r}")


def resolve_weight_vector(args):
    """--weights as inline JSON, a readable file, or a family name (see the module doc).

    A family name plus ``--n`` (and, for ``zipf``, ``--zipf-s``) is the object
    spec it names; either flag with anything else is refused.
    """
    spec = getattr(args, "weights", None)
    if spec is None:
        raise PreconditionError("weight spec: --weights is required")
    s = spec.strip()
    if s not in _NAMED_SPECS:
        _refuse_given(args, ("n", "zipf_s"), "--weights without a family name")
    elif s != "zipf":
        _refuse_given(args, ("zipf_s",), f"--weights {s}")
    if s in _NAMED_SPECS:
        parsed = dict(_NAMED_SPECS[s], n=args.n)
        if args.zipf_s is not None:
            parsed["s"] = args.zipf_s
    elif s.startswith(("[", "{")):
        parsed = _parse_spec(s, "inline JSON")
    elif os.path.isfile(s):
        with open(s) as fh:
            parsed = _parse_spec(fh.read(), f"file {s!r}")
    else:
        raise PreconditionError(f"weight spec: {s!r} is neither inline JSON, a readable "
                                f"file, nor one of {tuple(_NAMED_SPECS)}")
    try:
        w = _vector_from_spec(parsed)
    except (TypeError, ValueError) as e:
        raise PreconditionError(f"weight spec: {e}") from None
    return normalize(w) if getattr(args, "normalize", False) else w


def resolve_weight_sequence(args):
    """--family as a WeightSequence; --beta, where the command has it, scales ``log`` only."""
    fam = getattr(args, "family", None)
    if fam not in SEQUENCE_FAMILIES:
        raise PreconditionError(
            f"weight spec: --family must be one of {tuple(SEQUENCE_FAMILIES)}")
    beta = getattr(args, "beta", None)
    if beta is None:
        return SEQUENCE_FAMILIES[fam]()
    if fam != "log":
        raise PreconditionError(f"--beta applies to --family log only, not {fam!r}")
    return SEQUENCE_FAMILIES[fam](beta)


def _refuse_given(args, dests, who):
    """PreconditionError naming each flag of ``dests`` that ``args`` sets, since ``who`` ignores it."""
    given = [f"--{d.replace('_', '-')}" for d in dests if getattr(args, d, None) not in (None, False)]
    if given:
        raise PreconditionError(f"{who} does not read {', '.join(given)}")


def _parse_labels(text, what):
    """Labels as a list of JSON values or a comma list of ints; the caller checks each value."""
    s = text.strip()
    try:
        return json.loads(s) if s.startswith("[") else [int(t) for t in s.split(",")]
    except (json.JSONDecodeError, ValueError):
        raise PreconditionError(f"{what}: cannot parse {text!r}") from None


# ---------------------------------------------------------------------------
# subcommands; each returns a dict of tolerances for the manifest
# ---------------------------------------------------------------------------

def _cmd_pmf(args, rng):
    w = resolve_weight_vector(args)
    sigma = _parse_labels(args.sigma, "sigma")
    _emit_record(args.format, {"pmf": luce_pmf(w, sigma)})
    return {}


def _cmd_sample(args, rng):
    w = resolve_weight_vector(args)
    if args.n_samples < 0:
        raise PreconditionError("--n-samples must be nonnegative")
    if args.n_samples == 0:
        return {}
    samples = sample_urn_many(w, args.n_samples, rng)  # each --method draws the same race
    if args.format == "json":
        _emit_json({"method": args.method, "n": w.n,
                    "samples": [list(map(int, row)) for row in samples]})
    else:
        _emit_csv([f"p{j}" for j in range(1, w.n + 1)],
                  [list(map(int, row)) for row in samples])
    return {}


def _cmd_topk(args, rng):
    w = resolve_weight_vector(args)
    _emit_record(args.format, distance_report(w, args.k).to_dict())
    return {}


def _cmd_bottom_table(args, rng):
    seq = resolve_weight_sequence(args)
    if not 1 <= args.max_label <= _MAX_LABEL_MAX:
        raise PreconditionError(f"--max-label must be between 1 and {_MAX_LABEL_MAX}, "
                                f"got {args.max_label}")
    rows = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DefectiveMassWarning)
        for label in range(1, args.max_label + 1):
            rows.append((label, limit_bottom_pmf(seq, (label,), tol=args.tol)))
    if any(isinstance(c.message, DefectiveMassWarning) for c in caught):
        print("note: limit law is defective; probabilities sum below 1",
              file=sys.stderr)
    if args.format == "json":
        _emit_json({"family": args.family,
                    "rows": [{"label": l, "probability": p} for l, p in rows]})
    else:
        _emit_csv(["label", "probability"], rows)
    return {"tol": args.tol}


def _cmd_converge_test(args, rng):
    seq = resolve_weight_sequence(args)
    _emit_record(args.format, convergence_test(seq).to_dict())
    return {}


def _parse_chamber(kind, text):
    if kind == "boolean":
        return SignVector.from_string(text.strip())
    return Permutation(_parse_labels(text, "chamber"))


def _chamber_json(kind, chamber):
    """A chamber, as an object or a row of entries, in JSON: '+-+' or [2, 1, 3]."""
    if kind == "boolean":
        return (chamber if isinstance(chamber, SignVector) else SignVector(chamber)).to_string()
    return [int(v) for v in chamber]


def _chamber_text(kind, chamber):
    """The same chamber as one CSV cell: '+-+' or '2,1,3'."""
    doc = _chamber_json(kind, chamber)
    return doc if kind == "boolean" else ",".join(map(str, doc))


# the face-table flags each arrangement model reads; any other one given is refused
_MODEL_FLAGS = {"tsetlin": ("weights", "n", "zipf_s", "normalize"), "riffle": ("dim",),
                "ehrenfest": ("dim",), "coloring": ("graph",)}


def _build_face_table(args):
    model = args.model
    _refuse_given(args, [d for d in ("weights", "n", "zipf_s", "normalize", "dim", "graph")
                         if d not in _MODEL_FLAGS[model]], f"--model {model}")
    if model == "tsetlin":
        w = resolve_weight_vector(args)
        try:
            return tsetlin_face_weights(w)
        except PreconditionError as exc:
            if "sum to" not in str(exc):  # of the table's rules, the flag mends the sum alone
                raise
            raise PreconditionError(f"{exc}; add --normalize") from exc
    if model == "riffle":
        if args.dim is None:
            raise PreconditionError("--dim is required for the riffle model")
        return riffle_face_weights(args.dim)
    if model == "ehrenfest":
        if args.dim is None:
            raise PreconditionError("--dim is required for the ehrenfest model")
        return ehrenfest_face_weights(args.dim)
    # --model's choices leave only coloring
    if args.graph is None:
        raise PreconditionError("--graph is required for the coloring model")
    return graph_coloring_face_weights(_read_edge_list(args.graph))


def _read_edge_list(path):
    if not os.path.isfile(path):
        raise PreconditionError(f"graph file {path!r} not found or not a file")
    edges = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                u, v = map(int, line.split())
            except ValueError:  # not two fields, or not integers
                raise PreconditionError(f"graph file: bad line {line!r} (want 'u v', "
                                        f"two integers)") from None
            edges.append((u, v))
    return edges


def _cmd_arrangement(args, rng):
    table = _build_face_table(args)
    kind, dim = table.kind, table.dim
    if args.action == "sim":
        if args.steps < 0:
            raise PreconditionError("--steps must be nonnegative")
        start = _parse_chamber(kind, args.start) if args.start else \
            (SignVector([1] * dim) if kind == "boolean" else Permutation.identity(dim))
        chain = ChamberChain(table, start)
        # each row is printed as the walk makes it, so memory stays flat in --steps
        walk = itertools.chain([chain.current], (walk_step(chain, rng) for _ in range(args.steps)))
        if args.format == "csv":
            _emit_csv(["step", "chamber"], ([t, _chamber_text(kind, ch)]
                                            for t, ch in enumerate(walk)))
            return {}
        for t, ch in enumerate(walk):
            _emit_json({"step": t, "chamber": _chamber_json(kind, ch)})
        return {}
    if args.action == "stationary":
        _check_tol(args.tol)  # before the kernel build, which may take seconds
        k_mat = transition_matrix(table)
        pi = stationary_exact(k_mat, tol=args.tol)
        residual = float(np.abs(pi @ k_mat - pi).max())
        cells = [_chamber_text(kind, ch) for ch in enumerate_chambers(kind, dim)]
        if args.format == "json":
            _emit_json({"kind": kind, "stationary": [
                {"chamber": c, "probability": p} for c, p in zip(cells, pi)]})
        else:
            _emit_csv(["chamber", "probability"], list(zip(cells, pi)))
        return {"tol": args.tol, "residual": residual}
    # the arrangement subparsers leave only sample-bd
    if args.samples < 0:
        raise PreconditionError("--samples must be nonnegative")
    if args.samples == 0:
        return {}
    out = brown_diaconis_sample_many(table, args.samples, rng)
    if args.format == "json":
        _emit_json({"kind": kind, "samples": [_chamber_json(kind, row) for row in out]})
    else:
        _emit_csv(["chamber"], [[_chamber_text(kind, row)] for row in out])
    return {}


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="output format (default json)")
    p.add_argument("--seed", type=int, default=None,
                   help="rng seed; defaults to a time-derived value (logged)")


def _add_weight_opts(p):
    p.add_argument("--weights", help="inline JSON list, file path, or family name")
    p.add_argument("--n", type=int, default=None, help="size for family weight specs")
    p.add_argument("--zipf-s", type=float, default=None, dest="zipf_s",
                   help="zipf exponent, with --weights zipf only (default 1.0)")
    p.add_argument("--normalize", action="store_true",
                   help="scale the weight vector to sum to 1")


def build_parser():
    parser = _Parser(prog="lucewalks",
                     description="weighted sampling without replacement, "
                                 "top/bottom-of-deck laws, and chamber walks")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pmf", help="probability of one draw order")
    _add_weight_opts(p)
    p.add_argument("--sigma", required=True, help="draw order, e.g. '3,2,1'")
    _add_common(p)
    p.set_defaults(func=_cmd_pmf)

    p = sub.add_parser("sample", help="sample draw orders")
    _add_weight_opts(p)
    p.add_argument("--n-samples", type=int, required=True)
    p.add_argument("--method", choices=("urn", "exponential"), default="urn")
    _add_common(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("topk", help="distance diagnostics for the first k draws")
    _add_weight_opts(p)
    p.add_argument("--k", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_topk)

    p = sub.add_parser("bottom-table", help="limiting bottom-card probabilities")
    p.add_argument("--family", required=True, help="linear, constant, log, log-loglog")
    p.add_argument("--max-label", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    _add_common(p)
    p.set_defaults(func=_cmd_bottom_table)

    p = sub.add_parser("converge-test", help="classify the reversed-order limit")
    p.add_argument("--family", required=True)
    p.add_argument("--beta", type=float, default=None,
                   help="log family scale (default 1); x0 = 1/beta")
    _add_common(p)
    p.set_defaults(func=_cmd_converge_test)

    p = sub.add_parser("arrangement", help="chamber walks")
    asub = p.add_subparsers(dest="action", required=True)
    for action in ("sim", "stationary", "sample-bd"):
        q = asub.add_parser(action)
        q.add_argument("--model", required=True,
                       choices=("tsetlin", "riffle", "ehrenfest", "coloring"))
        _add_weight_opts(q)
        q.add_argument("--dim", type=int, default=None,
                       help="dimension (riffle n / ehrenfest d)")
        q.add_argument("--graph", help="edge-list file, one 'u v' pair per line")
        if action == "sim":
            q.add_argument("--steps", type=int, required=True)
            q.add_argument("--start", help="start chamber ('+-+' or '2,1,3')")
        elif action == "stationary":
            q.add_argument("--tol", type=float, default=1e-10)
        else:
            q.add_argument("--samples", type=int, required=True)
        _add_common(q)
        q.set_defaults(func=_cmd_arrangement)
    return parser


# (exception class, exit code, stderr label), first match wins
_EXITS = (
    (PreconditionError, 3, "precondition error"),
    (ToleranceError, 2, "numerical failure"),
    (LucewalksError, 3, "error"),
    (Exception, 4, "internal error"),
)


def _resolve_seed(args):
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    return _entropy_seed()


def _write_manifest(argv, seed, tolerances, exit_code, t0, error=None, trace=None):
    out_dir = os.environ.get("LUCEWALKS_OUTPUT_DIR", ".")
    try:
        os.makedirs(out_dir, exist_ok=True)
        manifest = {
            "argv": list(argv),
            "seed": seed,
            "version": __version__,
            "backend": kernels.BACKEND,
            "tolerances": tolerances,
            "exit_code": exit_code,
            "error": error,
            "traceback": trace,
            "duration_s": round(time.time() - t0, 6),
        }
        with open(os.path.join(out_dir, "run_manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
    except OSError as e:  # pragma: no cover - depends on filesystem state
        print(f"warning: could not write run manifest: {e}", file=sys.stderr)


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    t0 = time.time()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        _write_manifest(argv, None, {}, 1, t0)
        return 1
    except SystemExit as e:  # --help / --version
        code = 0 if (e.code or 0) == 0 else 1
        _write_manifest(argv, None, {}, code, t0)
        return code
    seed = _resolve_seed(args)
    print(f"seed: {seed}", file=sys.stderr)
    tolerances = {}
    error = trace = None
    try:  # RngStream refuses a seed outside [0, 2**64)
        tolerances = args.func(args, RngStream(seed)) or {}
        code = 0
    except Exception as e:  # MemoryError included; KeyboardInterrupt is not an Exception
        error = type(e).__name__
        code, label = next((c, label) for cls, c, label in _EXITS if isinstance(e, cls))
        if code == 4:
            label = f"{label}: {error}"
            trace = traceback.format_exc()
        print(f"{label}: {' '.join(str(e).split())}", file=sys.stderr)
    _write_manifest(argv, seed, tolerances, code, t0, error, trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
