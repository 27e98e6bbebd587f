"""One benchmark job process: a list of ``dowlab.cli.main`` calls.

Usage: python3 perfbench/job.py SPEC.json RESULT.json

SPEC holds ``{"calls": [[argv...], ...], "trace": bool}``.  Each call's exit
code, escaped exception and standard output go to RESULT, together with
the unit times of speed.py taken over the whole process and the trace
snapshot when ``trace`` is set.  The parent times this whole process,
interpreter start included, and checks the outputs afterwards.
"""

import contextlib
import io
import json
import sys

import speed


def main(spec_path: str, result_path: str) -> int:
    sampler = speed.Sampler()
    with open(spec_path) as handle:
        spec = json.load(handle)
    import dowlab.cli

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    calls = []
    for argv in spec["calls"]:
        out = io.StringIO()
        code, error = None, None
        try:
            with contextlib.redirect_stdout(out):
                code = dowlab.cli.main(argv)
        except Exception as exc:  # an escaped exception is one failed call, not a failed job
            error = f"{type(exc).__name__}: {exc}"
        calls.append({"exit": code, "error": error, "stdout": out.getvalue()})
    result = {"calls": calls, "speed": sampler.stop()}
    if tracer is not None:
        result["trace"] = tracer.snapshot()
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
