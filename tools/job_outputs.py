"""Every benchmark job's exit code and output, dumped per checkout and compared.

    OPENBLAS_NUM_THREADS=1 python3 tools/job_outputs.py dump OUT.jsonl [--checkout DIR]
    python3 tools/job_outputs.py compare A.jsonl B.jsonl
    python3 tools/job_outputs.py unrun [--checkout DIR]

A path that ends in .gz is read and written gzip-compressed.  The golden
dump that `tests/test_job_outputs.py` checks every job against is made by

    OPENBLAS_NUM_THREADS=1 python3 tools/job_outputs.py dump tests/data/job_outputs.jsonl.gz

`dump` runs every job of every workload in `perfbench/workloads.py`, and
the `contract` jobs listed here (`CONTRACT`), at seeds 1 and 7, through
`vbsprep.cli.main(argv)` in this one process, with the `src/` and the
workload list of the checkout at DIR (by default the one this file sits
in).  The workload file is only read: no bytecode is written
beside it.  It writes one JSON line per job: workload, argv, exit code,
stdout and stderr.  Set OPENBLAS_NUM_THREADS=1: a threaded BLAS may sum in
another order from run to run, and so move the last digits of a float.

`compare` counts the jobs whose exit code, stdout and stderr are byte for
byte the same in A and B, and lists every other job with the largest
relative difference between the floats of its outputs.  Its last line gives
the largest of these over all jobs, and the job it came from.  It exits 1 if a job
is missing from either file, an exit code or any text beside the numbers
differs (check names and pass flags included), or a float moved by more than
REL_TOL relative, else 0.

`unrun` runs the same jobs under `sys.settrace` and lists every statement
inside a function of the checkout's src/vbsprep that no job executes, one
per line as PATH:LINE FUNCTION: SOURCE, then how many of how many
statements that is.  Module-level statements, which run as the package is
imported, are not counted; nor are docstrings and `global` declarations,
which run no code.
"""
from __future__ import annotations

import argparse
import ast
import contextlib
import gzip
import importlib.util
import io
import json
import os
import re
import sys
import types
from pathlib import Path

SEEDS = (1, 7)
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
STREAMS = ("stdout", "stderr")
# Floats may move this much, relative: a threaded BLAS sums some dot products in another order.
REL_TOL = 1e-12
# Paths no benchmark job reaches, pinned here so that the benchmark's workloads stay as they are:
# routed verify, structural QASM, --out to a path that cannot be written (exit 5), and the honeycomb parser.
CONTRACT = (
    "verify --spin 2 --lattice chain:4:open:anti --method probabilistic --coupling linear",
    "verify --spin 2 --lattice chain:4:ring --method probabilistic --coupling linear",
    "verify --spin 3 --lattice three-link-pair --method probabilistic --coupling heavy_hex",
    "verify --spin 3 --lattice three-link-pair --method mitigated_islands --coupling heavy_hex",
    "emit-qasm --spin 2 --lattice chain:4:ring --qasm-mode structural",
    "emit-qasm --spin 3 --lattice three-link-pair --qasm-mode structural",
    "emit-qasm --spin 2 --lattice chain:3:open:aligned --out /nonexistent/vbsprep.qasm",
    "verify --spin 2 --lattice chain:3:open:aligned --method probabilistic --out /nonexistent/vbsprep.json",
    "verify --spin 2 --lattice honeycomb:1:1 --method probabilistic",
    "verify --spin 2 --lattice honeycomb:1:1 --method mitigated_islands",
    "verify --spin 2 --lattice honeycomb:1:1 --method mitigated_retry",
    "verify --spin 2 --lattice honeycomb:1:1 --method lcu",
    "verify --spin 2 --lattice honeycomb:0:1 --method probabilistic",
)


def _contract(seed: int) -> list:
    """The CONTRACT jobs at `seed`, shaped as the workloads' jobs."""
    return [types.SimpleNamespace(argv=(*line.split(), "--seed", str(seed))) for line in CONTRACT]


def _workloads(checkout: Path):
    """The WORKLOADS table of the checkout's perfbench/workloads.py, and the contract jobs."""
    spec = importlib.util.spec_from_file_location("workloads", checkout / "perfbench" / "workloads.py")
    module = sys.modules["workloads"] = importlib.util.module_from_spec(spec)  # its dataclass looks itself up there
    spec.loader.exec_module(module)
    return {**module.WORKLOADS, "contract": _contract}


def _open(path: Path, mode: str):
    """The text file at path; gzip-compressed if its name ends in .gz, with no time stamp, so one dump makes one file."""
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.GzipFile(path, mode + "b", mtime=0), encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def _cli(checkout: Path):
    """The checkout's vbsprep.cli, imported from its src/ with no bytecode written."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(checkout / "src"))
    import vbsprep.cli

    return vbsprep.cli


def _run_jobs(cli, workloads: dict):
    """Run every job of `workloads` at each of SEEDS through cli.main, yielding one record per job."""
    for seed in SEEDS:
        for workload, jobs in workloads.items():
            for job in jobs(seed):
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    try:
                        rc = cli.main(list(job.argv))
                    except SystemExit as exc:  # argparse rejects a command line
                        rc = exc.code
                    except Exception as exc:  # a traceback is an outcome to compare too
                        rc = f"{type(exc).__name__}: {exc}"
                yield {"workload": workload, "argv": list(job.argv), "rc": rc,
                       "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def dump(path: Path, checkout: Path) -> int:
    cli = _cli(checkout)
    with _open(path, "w") as out:
        for record in _run_jobs(cli, _workloads(checkout)):
            out.write(json.dumps(record) + "\n")
    return 0


def _statements(source: str) -> dict[tuple[int, int], str]:
    """The own lines (first, last) of each statement inside a function of `source`, mapped to the function's name.

    A compound statement's own lines are its header, up to its first body
    statement; a simple statement's are all its lines.  A statement ran if
    `sys.settrace` reported any of its own lines.
    """
    found: dict[tuple[int, int], str] = {}

    def visit(stmts, name: str | None, scope: str):  # name: the function they run in, None as the module loads
        for stmt in stmts:
            if name is not None and not isinstance(stmt, (ast.Global, ast.Nonlocal)):
                first = min([stmt.lineno, *(d.lineno for d in getattr(stmt, "decorator_list", ()))])
                body = getattr(stmt, "body", None)
                found[first, max(first, body[0].lineno - 1) if body else stmt.end_lineno] = name
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = scope + stmt.name
                body = stmt.body[1:] if ast.get_docstring(stmt) is not None else stmt.body
                visit(body, name if isinstance(stmt, ast.ClassDef) else qualname, qualname + ".")
            else:
                for block in ("body", "orelse", "finalbody", "handlers"):
                    visit(getattr(stmt, block, ()), name, scope)

    visit(ast.parse(source).body, None, "")
    return found


def unrun(checkout: Path, workloads: dict | None = None) -> int:
    """List the statements of src/vbsprep's functions that no job of `workloads` (by default the checkout's) executes."""
    cli = _cli(checkout)
    package = os.path.dirname(sys.modules["vbsprep"].__file__)
    hit = {os.path.join(package, name): set() for name in sorted(os.listdir(package)) if name.endswith(".py")}

    def on_call(frame, event, arg):
        lines = hit.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        for _ in _run_jobs(cli, _workloads(checkout) if workloads is None else workloads):
            pass
    finally:
        sys.settrace(previous)
    missed = total = 0
    for path, lines in hit.items():
        with open(path, encoding="utf-8") as f:
            source = f.read()
        text = source.splitlines()
        for (first, last), name in sorted(_statements(source).items()):
            total += 1
            if lines.isdisjoint(range(first, last + 1)):
                missed += 1
                print(f"{os.path.relpath(path, checkout)}:{first} {name}: {text[first - 1].strip()}")
    print(f"{missed} of {total} statements inside functions ran on no job")
    return 0


def _load(path: Path) -> dict:
    with _open(path, "r") as f:
        records = [json.loads(line) for line in f]
    return {(r["workload"], tuple(r["argv"])): r for r in records}


def _relative_difference(a: str, b: str) -> float:
    x, y = float(a), float(b)
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale else 0.0


def compare(path_a: Path, path_b: Path) -> int:
    a, b = _load(path_a), _load(path_b)
    failed = False
    for key in sorted(a.keys() ^ b.keys()):
        print(f"only in {path_a if key in a else path_b}: {key[0]} {' '.join(key[1])}")
        failed = True
    identical, largest = 0, (0.0, None)
    for key in sorted(a.keys() & b.keys()):
        ra, rb = a[key], b[key]
        if all(ra[f] == rb[f] for f in ("rc", *STREAMS)):
            identical += 1
            continue
        line = f"{key[0]} {' '.join(key[1])}:"
        if ra["rc"] != rb["rc"]:
            print(f"{line} exit code {ra['rc']!r} != {rb['rc']!r}")
            failed = True
            continue
        worst = 0.0
        for stream in STREAMS:
            if NUMBER.split(ra[stream]) != NUMBER.split(rb[stream]):
                print(f"{line} {stream} text differs")
                failed = True
                break
            worst = max([worst, *map(_relative_difference, NUMBER.findall(ra[stream]), NUMBER.findall(rb[stream]))])
        else:
            print(f"{line} largest relative float difference {worst:.3g}")
            failed |= worst > REL_TOL
            largest = max(largest, (worst, line[:-1]), key=lambda pair: pair[0])
    print(f"{identical} of {len(a.keys() | b.keys())} jobs byte-identical")
    print(f"largest relative float difference over all jobs: {largest[0]:.3g}" + (f" ({largest[1]})" if largest[1] else ""))
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    dumper = commands.add_parser("dump", help="run every workload job and write its outputs")
    dumper.add_argument("path", type=Path)
    checkout = Path(__file__).resolve().parent.parent
    dumper.add_argument("--checkout", type=Path, default=checkout)
    comparer = commands.add_parser("compare", help="compare two dumps")
    comparer.add_argument("a", type=Path)
    comparer.add_argument("b", type=Path)
    lister = commands.add_parser("unrun", help="list the statements of src/vbsprep that no job executes")
    lister.add_argument("--checkout", type=Path, default=checkout)
    args = parser.parse_args(argv)
    if args.command == "dump":
        return dump(args.path, args.checkout.resolve())
    if args.command == "unrun":
        return unrun(args.checkout.resolve())
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
