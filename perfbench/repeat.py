"""Checks that the benchmark's counts repeat and that its job lists are seed-stable.

    python3 perfbench/repeat.py --seed 1 --seconds 10

For every workload: two traced runs with --seed must give identical counts
(gates simulated, gate applications, computed amplitude bytes, peak register
width, post-selection yield, retry rounds and every other exact per-layer
count), and a run with --seed + 1 must run the same command lines, differing
only in each job's --seed, with every outcome correct.  (An expected exit
code may differ: see workloads.MC_OUTSIDE_3_SIGMA.)  Exits 1 on any mismatch.
"""
from __future__ import annotations

import argparse
import sys

from run import EXACT, run_workload
from workloads import WORKLOADS


def _without_seed(jobs) -> list[list[str]]:
    return [job["argv"][:-2] for job in jobs]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    args = ap.parse_args(argv)
    ok = True
    for name in WORKLOADS:
        first, second = (run_workload(name, args.seed, args.seconds, trace=True) for _ in range(2))
        other = run_workload(name, args.seed + 1, args.seconds, trace=False)
        differ = [k for k in EXACT if first["per_layer"][k] != second["per_layer"][k]]
        same_jobs = _without_seed(first["jobs"]) == _without_seed(other["jobs"])
        wrong = first["failed"] + second["failed"] + other["failed"]
        expect_other = sum(a["expect_rc"] != b["expect_rc"] for a, b in zip(first["jobs"], other["jobs"]))
        print(f"{name}: counts {'repeat' if not differ else 'DIFFER ' + str(differ)};"
              f" seed {args.seed + 1} job list {'same' if same_jobs else 'DIFFERENT'}"
              f" ({len(other['jobs'])} jobs, {expect_other} with another expected exit code); wrong outcomes {wrong}")
        for key in ("ir.gates_simulated", "statesim.apply.calls", "statesim.amp_bytes", "statesim.peak_qubits",
                    "ir.postselect_yield", "methods.retry_rounds"):
            print(f"  {key:<24} {first['per_layer'][key]}")
        ok = ok and not differ and same_jobs and wrong == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
