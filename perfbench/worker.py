"""One pass over a job list in a fresh interpreter.

Reads a JSON request on stdin:
    {"jobs": [[argv...], ...], "trace": bool, "spans_out": path or null}
and writes one JSON object on stdout with the import time, the pass wall
time, the peak RSS, every job's exit code, wall time, standard output and
standard error, and, when traced, the per-layer metrics of the pass.

Run from run.py with PYTHONPATH pointing at the checkout's src/.
"""
from __future__ import annotations

import sys
import time

# Timed before anything else is imported, like run.py's import probe.
_started = time.perf_counter()
import vbsprep.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _started

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402


def _environment() -> dict:
    import numpy as np

    build = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": build.get("blas", {}),
        "lapack": build.get("lapack", {}),
    }


def main() -> int:
    request = json.load(sys.stdin)
    expected_src = os.path.realpath(request["src"])
    if not os.path.realpath(vbsprep.cli.__file__).startswith(expected_src + os.sep):
        print(f"vbsprep imported from {vbsprep.cli.__file__}, not from {expected_src}", file=sys.stderr)
        return 2

    tracer = None
    if request["trace"]:
        from tracer import Tracer, install, layer_metrics

        tracer = Tracer()
        install(tracer)
    cli_main = vbsprep.cli.main

    jobs = []
    pass_start = time.perf_counter()
    for index, argv in enumerate(request["jobs"]):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.job = index
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli_main(argv)
            except SystemExit as exc:  # argparse rejects a command line
                rc = exc.code
            except Exception as exc:  # a traceback is a wrong outcome, not a harness failure
                rc = f"{type(exc).__name__}: {exc}"
        jobs.append({"rc": rc, "wall_s": time.perf_counter() - t0, "stdout": out.getvalue(), "stderr": err.getvalue()})
    pass_s = time.perf_counter() - pass_start

    result = {
        "import_s": IMPORT_S,
        "pass_s": pass_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs": jobs,
        "env": _environment(),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer)
        if request.get("spans_out"):
            tracer.write_spans(request["spans_out"])
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
