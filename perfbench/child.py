"""Child process for benchmark tasks that run outside the worker.

    python3 child.py [--trace-out FILE] cli ARGS...
        Import ``lucewalks.cli`` and run ``main(ARGS)``, exiting with its code.
        This is the traced stand-in for ``python -m lucewalks ARGS``: the
        import and ``main`` are recorded as spans.
    python3 child.py [--trace-out FILE] tsetlin-solve WEIGHTS_JSON
        Dense stationary solve of the Tsetlin walk; prints {"pi", "residual"}
        as JSON, or exits with code 86 on MemoryError.

With ``--trace-out`` the library is wrapped as in the worker's traced pass
and the recorded spans, counters and errors are written to FILE as JSON.
"""

import json
import sys

from tracer import Tracer

MEMORY_EXIT = 86


def _cli(tracer, args):
    sid = tracer.open("cli.import") if tracer else None
    import lucewalks.cli

    if tracer:
        tracer.close(sid)
        tracer.install()
    return lucewalks.cli.main(args)


def _tsetlin_solve(tracer, args):
    import numpy as np

    import lucewalks as L

    if tracer:
        tracer.install()
    try:
        table = L.tsetlin_face_weights(L.WeightVector(json.loads(args[0])))
        k_mat = L.transition_matrix(table)
        pi = L.stationary_exact(k_mat)
    except MemoryError:
        return MEMORY_EXIT
    residual = float(np.abs(pi @ k_mat - pi).max())
    print(json.dumps({"pi": pi.tolist(), "residual": residual}))
    return 0


def main(argv):
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    tracer = Tracer() if trace_out is not None else None
    command, args = argv[0], argv[1:]
    code = {"cli": _cli, "tsetlin-solve": _tsetlin_solve}[command](tracer, args)
    if tracer:
        with open(trace_out, "w") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
