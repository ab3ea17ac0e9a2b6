"""Job lists for the benchmark workloads.

A job is one `vbsprep.cli.main(argv)` call plus the exit code it must
return.  The job list of a workload is fixed; the workload seed reaches the
program only as the `--seed` of every job, so two seeds give the same jobs
with a different `--seed`.
"""
from __future__ import annotations

from dataclasses import dataclass

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECK_FAILED = 3
EXIT_UNSUPPORTED = 4

# The seeds below 5000 whose 10^5-shot Monte-Carlo success rate on
# chain:7:open:aligned lands outside the report's 3-sigma check, as it must
# for about 0.27% of seeds.  On these the MC job must exit 3 with exactly
# that check failed.
MC_OUTSIDE_3_SIGMA = frozenset({2, 162, 850, 1507, 1542, 1632, 3415, 3756, 3769, 4237, 4939, 4974})

ROUTES = ("probabilistic", "mitigated_islands", "mitigated_retry", "lcu", "mps")


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    expect_rc: int = EXIT_OK
    failed_checks: tuple[str, ...] = ()  # report checks that must fail

    @property
    def command(self) -> str:
        return self.argv[0]


def _job(line: str, seed: int, expect_rc: int = EXIT_OK) -> Job:
    return Job(tuple(line.split()) + ("--seed", str(seed)), expect_rc)


def large_register(seed: int) -> list[Job]:
    mc = _job("prepare --spin 2 --lattice chain:7:open:aligned --method probabilistic --shots 100000", seed)
    if seed in MC_OUTSIDE_3_SIGMA:
        mc = Job(mc.argv, EXIT_CHECK_FAILED, ("mc_within_3_sigma",))
    return [
        mc,
        _job("verify --spin 2 --lattice chain:7:ring --method probabilistic", seed),
        _job("prepare --spin 2 --lattice chain:8:open:aligned --method mitigated_islands", seed),
    ]


# Every lattice whose registers stay at or below 16 qubits under every route
# listed with it: (lattice, 2S, routes).
_SWEEP_LATTICES = (
    [(f"chain:{n}:open:{flavor}", 2, ROUTES) for n in range(2, 6) for flavor in ("aligned", "anti")]
    + [
        ("chain:4:ring", 2, ROUTES),
        ("three-link-pair", 3, ROUTES[:4]),
        # lcu needs an 18-qubit register here; it runs in oracle-verify.
        ("three-link-ring:4", 3, ROUTES[:3]),
    ]
)


def route_sweep(seed: int) -> list[Job]:
    jobs = [
        _job(f"{cmd} --spin {spin} --lattice {lattice} --method {route}", seed)
        for lattice, spin, routes in _SWEEP_LATTICES
        for route in routes
        for cmd in ("prepare", "verify")
    ]
    jobs += [
        _job(f"prepare --spin 2 --lattice {lattice} --method probabilistic --coupling linear", seed)
        for lattice, spin, _ in _SWEEP_LATTICES
        if spin == 2
    ]
    jobs += [
        _job(f"prepare --spin 3 --lattice three-link-pair --method {route} --coupling heavy_hex", seed)
        for route in ("probabilistic", "mitigated_islands")
    ]
    jobs += [_job("resources", seed)]
    jobs += [
        _job(f"emit-qasm --spin 2 --lattice {lattice} --qasm-mode basis", seed)
        for lattice in ("chain:2:open:aligned", "chain:5:open:anti", "chain:4:ring")
    ]
    jobs += [
        # 27 qubits, over the simulator's 26-qubit cap
        _job("prepare --spin 2 --lattice chain:9:open:aligned --method probabilistic", seed, EXIT_CONFIG),
        # the mps route prepares at most 6 sites
        _job("prepare --spin 2 --lattice chain:8:open:aligned --method mps", seed, EXIT_UNSUPPORTED),
        # the mps route needs a spin-1 chain
        _job("prepare --spin 3 --lattice three-link-pair --method mps", seed, EXIT_CONFIG),
        # no textbook expansion for the spin-3/2 test block
        _job("emit-qasm --spin 3 --lattice three-link-pair --qasm-mode basis", seed, EXIT_UNSUPPORTED),
    ]
    return jobs


def oracle_verify(seed: int) -> list[Job]:
    return [
        _job("verify --spin 2 --lattice chain:10:open:aligned --method mitigated_retry", seed),
        _job("verify --spin 2 --lattice chain:11:open:aligned --method mitigated_retry", seed),
        _job("verify --spin 2 --lattice chain:9:open:aligned --method lcu", seed),
        _job("prepare --spin 3 --lattice three-link-ring:4 --method lcu", seed),
    ]


# Generator per workload; BENCHMARK.json and README.md say why each was chosen.
WORKLOADS = {
    "large-register": large_register,
    "route-sweep": route_sweep,
    "oracle-verify": oracle_verify,
}
