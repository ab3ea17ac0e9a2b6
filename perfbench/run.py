"""vbsprep benchmark: closed-loop CLI jobs, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload large-register --seed 1 --seconds 20 --trace 0

Runs the workload's job list (perfbench/workloads.py) once to warm up,
untimed, then in timed passes for `--seconds`: a pass starts only while one
is expected to end in time.  Each pass is one fresh worker interpreter that
imports the checkout's src/vbsprep and calls `vbsprep.cli.main(argv)` once
per job, each job after the previous one ends: one client, a closed loop.

--trace 0  untraced passes only; the last line carries the end-to-end metrics.
--trace 1  untraced and traced passes alternate; the last line carries the
           per-layer metrics of the traced passes (perfbench/tracer.py) and
           the tracing overhead, traced minus untraced pass_s.

Every job's outcome is checked: its exit code, every check of its report,
and that its output bytes are the same in every pass, traced or not.  A
summary goes to standard output, the full record to perfbench/out/, and the
last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
`--workload all` runs every workload in turn and prefixes metric names with it.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 3  # at the start of a run, then one after every pass
RUN_LIMIT_S = 160.0  # a run must end within 180 s
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
REPORT_COMMANDS = ("prepare", "verify", "resources")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
PROBE = "import time; t = time.perf_counter(); import vbsprep.cli; print(time.perf_counter() - t)"

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    *[(f"{layer}.{kind}", unit) for layer in LAYERS for kind, unit in (("calls", "count"), ("self_s", "s"))],
    ("statesim.apply.calls", "count"),
    ("statesim.apply.self_s", "s"),
    ("statesim.apply.k1.self_s", "s"),
    ("statesim.apply.k2.self_s", "s"),
    ("statesim.apply.k3.self_s", "s"),
    ("statesim.apply.k4plus.self_s", "s"),
    ("statesim.amp_bytes", "bytes"),
    ("statesim.peak_qubits", "qubits"),
    ("statesim.nonunitary.self_s", "s"),
    ("statesim.expectation.self_s", "s"),
    ("statesim.copy.calls", "count"),
    ("statesim.copy.self_s", "s"),
    ("statesim.project.self_s", "s"),
    ("statesim.sample.self_s", "s"),
    ("statesim.impossible_outcomes", "count"),
    ("ir.simulate.self_s", "s"),
    ("ir.gates_simulated", "count"),
    ("ir.post_select.self_s", "s"),
    ("ir.markers_projected", "count"),
    ("ir.depth.self_s", "s"),
    ("ir.postselect_yield", "ratio"),
    ("methods.route.self_s", "s"),
    ("methods.oracle.self_s", "s"),
    ("methods.data_state.self_s", "s"),
    ("methods.retry_rounds", "count"),
    ("methods.retry_yield", "ratio"),
    ("builders.gates_emitted", "count"),
    ("analysis.mc.self_s", "s"),
    ("analysis.report.self_s", "s"),
    ("analysis.tables.self_s", "s"),
    ("trace.pass_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("trace.accounted_share", "ratio"),
)
# Counts of work done; they must repeat exactly for the same job list and seed.
EXACT = tuple(name for name, unit in PER_LAYER if unit in ("count", "bytes", "qubits")) + (
    "ir.postselect_yield",
    "methods.retry_yield",
)


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # Users' imports read cached bytecode; measure setup_s the same way.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _time_left(run_start: float) -> float:
    left = RUN_LIMIT_S - (time.monotonic() - run_start)
    if left <= 0:
        raise HarnessError(f"run exceeded {RUN_LIMIT_S:.0f} s")
    return left


def probe_import(env: dict, run_start: float) -> float:
    """Seconds a fresh interpreter spends importing vbsprep.cli."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=_time_left(run_start),
    )
    if proc.returncode != 0:
        raise HarnessError(f"import probe failed:\n{proc.stderr[-2000:]}")
    return float(proc.stdout.strip())


def run_pass(jobs, traced: bool, env: dict, run_start: float, spans_out: Path | None) -> dict:
    request = {
        "src": str(SRC),
        "jobs": [list(job.argv) for job in jobs],
        "trace": traced,
        "spans_out": str(spans_out) if traced and spans_out else None,
    }
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py")], input=json.dumps(request), env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=_time_left(run_start),
    )
    if proc.returncode != 0:
        raise HarnessError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout)
    result["traced"] = traced
    return result


def job_problems(job, outcome: dict, reference: str | None) -> tuple[list[str], str]:
    """What is wrong with one job execution, and the digest of its output bytes."""
    problems = []
    text = outcome["stdout"]
    digest = hashlib.sha256(text.encode()).hexdigest()
    if outcome["rc"] != job.expect_rc:
        last = outcome["stderr"].strip().splitlines()[-1:] or [""]
        problems.append(f"exit {outcome['rc']!r}, expected {job.expect_rc}: {last[0]}")
    if job.command in REPORT_COMMANDS and job.expect_rc in (0, 3):
        try:
            checks = json.loads(text)["checks"]
        except (ValueError, KeyError, TypeError):
            problems.append("no report on standard output")
        else:
            failed = sorted(c["name"] for c in checks if not c["pass"])
            if not checks:
                problems.append("report has no checks")
            elif failed != sorted(job.failed_checks):
                problems.append(f"failed checks {failed}, expected {sorted(job.failed_checks)}")
    elif job.command == "emit-qasm" and job.expect_rc == 0:
        if not text.startswith("OPENQASM 2.0;"):
            problems.append("no OpenQASM 2.0 program on standard output")
    elif job.expect_rc != 0 and text:
        problems.append("output written although the job must fail")
    if reference is not None and digest != reference:
        problems.append("output bytes differ from the first pass")
    return problems, digest


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest listed percentile with at least TAIL_BEYOND samples above it (nearest rank).

    Below 2 * TAIL_BEYOND samples no percentile qualifies and the maximum
    is reported as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(n * pct / 100.0)
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], pct, n
    return ordered[-1], 100.0, n


def environment(env: dict, worker_env_info: dict) -> dict:
    commit = "unknown (checkout has no .git)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
            commit = proc.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        **worker_env_info,
        "blas_thread_env": {var: env.get(var, "unset") for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit,
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    jobs = WORKLOADS[name](seed)
    env = worker_env()
    run_start = time.monotonic()
    OUT.mkdir(exist_ok=True)
    spans_out = OUT / f"spans-{name}.tsv"

    setup = [probe_import(env, run_start) for _ in range(SETUP_PROBES)]
    # The first pass is a warm-up: its outcomes are checked but not timed.
    passes: list[dict] = []
    rounds: list[float] = []  # wall time of each pass with its import probe
    deadline = None
    least = 3 if trace else 2  # the warm-up, an untraced and, with --trace 1, a traced pass
    while len(passes) < least or time.monotonic() + statistics.median(rounds) <= deadline:
        traced = trace and len(passes) % 2 == 1
        started = time.monotonic()
        passes.append(run_pass(jobs, traced, env, run_start, spans_out))
        passes[-1]["timed"] = deadline is not None
        setup.append(probe_import(env, run_start))
        rounds.append(time.monotonic() - started)
        if deadline is None:
            # Passes start only while one is expected to end within --seconds.
            deadline = time.monotonic() + seconds

    references: list[str | None] = [None] * len(jobs)
    failures: list[str] = []
    attempted = failed = 0
    for number, result in enumerate(passes, 1):
        for index, (job, outcome) in enumerate(zip(jobs, result["jobs"])):
            problems, digest = job_problems(job, outcome, references[index])
            if references[index] is None:
                references[index] = digest
            attempted += 1
            if problems:
                failed += 1
                failures.append(f"pass {number} ({'traced' if result['traced'] else 'untraced'}): "
                                f"{' '.join(job.argv)}: {'; '.join(problems)}")

    untraced = [p for p in passes if p["timed"] and not p["traced"]]
    traced_passes = [p for p in passes if p["timed"] and p["traced"]]
    walls = [j["wall_s"] for p in untraced for j in p["jobs"]]
    tail_value, tail_pct, tail_n = tail(walls)
    setup += [p["import_s"] for p in passes]
    end_to_end = {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(p["pass_s"] for p in untraced),
        "job_p50_s": statistics.median(walls),
        "job_tail_s": tail_value,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
    }

    layers: dict[str, float] = {}
    repeat_problems: list[str] = []
    if traced_passes:
        per_pass = [p["layers"] for p in traced_passes]
        for key, _ in PER_LAYER:
            if key in EXACT:
                values = {pl[key] for pl in per_pass}
                if len(values) > 1:
                    repeat_problems.append(f"{key} differs between traced passes: {sorted(values)}")
                layers[key] = per_pass[0][key]
            elif not key.startswith("trace."):
                layers[key] = statistics.median(pl[key] for pl in per_pass)
        traced_job_s = [sum(j["wall_s"] for j in p["jobs"]) for p in traced_passes]
        layers["trace.pass_s"] = statistics.median(p["pass_s"] for p in traced_passes)
        layers["trace.overhead_s"] = layers["trace.pass_s"] - end_to_end["pass_s"]
        layers["trace.accounted_share"] = statistics.median(
            pl["trace.self_s"] / job_s for pl, job_s in zip(per_pass, traced_job_s)
        )

    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": environment(env, passes[0]["env"]),
        "jobs": [{"argv": list(j.argv), "expect_rc": j.expect_rc, "failed_checks": list(j.failed_checks)} for j in jobs],
        "passes": [
            {**{k: p[k] for k in ("timed", "traced", "import_s", "pass_s", "peak_rss_mb")},
             "job_walls_s": [j["wall_s"] for j in p["jobs"]]}
            for p in passes
        ],
        "setup_samples_s": setup,
        "job_tail": {"percentile": tail_pct, "samples": tail_n, "beyond": tail_n - math.ceil(tail_n * tail_pct / 100.0)},
        "end_to_end": end_to_end,
        "per_layer": layers,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": failures,
        "repeat_problems": repeat_problems,
    }
    (OUT / f"{name}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def print_summary(record: dict) -> None:
    env = record["env"]
    blas = env["blas"]
    print(f"== {record['workload']}  seed {record['seed']}  seconds {record['seconds']}  trace {int(record['trace'])}")
    print(f"env: python {env['python']}, numpy {env['numpy']}, blas {blas.get('name', '?')} {blas.get('version', '')}"
          f" ({blas.get('openblas configuration', '').strip()}), threads {env['blas_thread_env']},"
          f" nproc {env['nproc']}, commit {env['commit']}")
    for p in record["passes"]:
        kind = ("traced  " if p["traced"] else "untraced") if p["timed"] else "warm-up "
        print(f"pass {kind} {p['pass_s']:.4f} s"
              f"  import {p['import_s']:.4f} s  peak rss {p['peak_rss_mb']:.1f} MB")
    t = record["job_tail"]
    notes = {
        "setup_s": f"median of {len(record['setup_samples_s'])} fresh imports of vbsprep.cli",
        "pass_s": f"median of {sum(p['timed'] and not p['traced'] for p in record['passes'])} timed untraced passes",
        "job_p50_s": f"median of {t['samples']} job runs",
        "job_tail_s": f"p{t['percentile']:g} of {t['samples']} job runs, {t['beyond']} beyond it",
        "peak_rss_mb": "median over timed untraced passes of the worker's peak RSS",
    }
    for name, unit in END_TO_END:
        print(f"  {name:<14} {record['end_to_end'][name]:>12.6f} {unit:<5} {notes[name]}")
    print(f"  {'fail_ratio':<14} {record['fail_ratio']:>12.6f} ratio {record['failed']} of {record['attempted']} jobs wrong")
    for name, unit in PER_LAYER:
        if name in record["per_layer"]:
            print(f"  {name:<30} {record['per_layer'][name]:>16.6f} {unit}")
    for line in record["failures"][:20] + record["repeat_problems"]:
        print(f"  WRONG {line}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "vbsprep" / "cli.py").is_file():
        print(f"error: no vbsprep sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics: dict[str, dict] = {}
    correct, attempted, failed = True, 0, 0
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print_summary(record)
            correct = correct and record["failed"] == 0 and not record["repeat_problems"]
            attempted += record["attempted"]
            failed += record["failed"]
            values = record["per_layer"] if args.trace else record["end_to_end"]
            prefix = f"{name}." if args.workload == "all" else ""
            for metric, unit in PER_LAYER if args.trace else END_TO_END:
                metrics[prefix + metric] = {"value": values[metric], "unit": unit}
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
