"""Command-line front end.

Subcommands: prepare, verify, resources, emit-qasm.  Lattices come from a
mini-language (chain:N:open:aligned, chain:N:ring, three-link-pair,
three-link-ring:N, honeycomb:R:C, file:PATH).  Exit codes: 0 success,
2 invalid configuration, 3 verification check failed, 4 missing declared
cost or unsupported combination, 5 I/O failure.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis
from .builders import probabilistic_method_circuit
from .errors import (
    CapExceededError,
    ConfigError,
    MissingCostError,
    NotBipartiteError,
    UnsupportedError,
    VbsError,
)
from .ir import born_probabilities, cnot_depth, simulate_post_selected
from .lattice import (
    BOUNDARY_OPEN,
    BOUNDARY_RING,
    Lattice,
    assign_qubits,
    build_chain,
    build_honeycomb_patch,
    build_three_link_pair,
    build_three_link_ring,
    lattice_from_json,
    linear_coupling,
)
from .methods import ROUTES, oracle_vbs_state
from .qasm import emit_qasm
from .routing import heavy_hex_pair, route
from .spinops import link_operators
from .statesim import max_qubits
from .symmetrize import lcu_spin2_resources

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECK_FAILED = 3
EXIT_UNSUPPORTED = 4
EXIT_IO = 5

METHODS = tuple(ROUTES)
COUPLINGS = ("all_to_all", "linear", "heavy_hex")

# The options each command reads; any other set away from its default exits 4.
# Every command takes --seed and --out, so one job line runs under any command.
OPTIONS_READ = {
    "prepare": ("spin", "lattice", "method", "coupling", "shots", "seed", "out"),
    "verify": ("spin", "lattice", "method", "coupling", "seed", "out"),
    "resources": ("seed", "out"),
    "emit-qasm": ("spin", "lattice", "qasm_mode", "seed", "out"),
}


# Accepted forms and field counts (after the kind) of each lattice spec kind.
LATTICE_FORMS = {
    "chain": ("chain:N:open[:aligned|anti] or chain:N:ring", (2, 3)),
    "three-link-pair": ("three-link-pair", (0,)),
    "three-link-ring": ("three-link-ring:N", (1,)),
    "honeycomb": ("honeycomb:R:C", (2,)),
}


def parse_lattice(spec: str) -> Lattice:
    parts = spec.split(":")
    kind = parts[0]
    if kind == "file":
        path = Path(spec[len("file:"):])
        try:
            return lattice_from_json(path.read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read lattice file: {exc}") from exc
    if kind not in LATTICE_FORMS:
        raise ConfigError(f"unknown lattice spec {spec!r}")
    form, arities = LATTICE_FORMS[kind]
    if len(parts) - 1 not in arities:
        raise ConfigError(f"malformed lattice spec {spec!r}; expected {form}")

    def number(field: str) -> int:
        try:
            return int(field)
        except ValueError:
            raise ConfigError(f"malformed lattice spec {spec!r}: {field!r} is not an integer; expected {form}") from None

    if kind == "chain":
        n = number(parts[1])
        if parts[2:] == ["ring"]:
            return build_chain(n, "ring")
        if parts[2] == "open":
            mode = parts[3] if len(parts) > 3 else "aligned"
            if mode == "aligned":
                spins = ("up", "up")
            elif mode == "anti":
                spins = ("up", "down")
            else:
                raise ConfigError(f"unknown chain boundary flavor {mode!r}")
            return build_chain(n, "open", spins)
        raise ConfigError(f"malformed lattice spec {spec!r}; expected {form}")
    if kind == "three-link-pair":
        return build_three_link_pair()
    if kind == "three-link-ring":
        return build_three_link_ring(number(parts[1]))
    return build_honeycomb_patch(number(parts[1]), number(parts[2]))


def validate_config(lattice: Lattice, twice_s: int, method: str):
    """Raises unless every site of `lattice` has spin `twice_s` and the lattice can run `method`."""
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; pick one of {METHODS}")
    lat_spin = lattice.uniform_twice_spin()
    if lat_spin != twice_s:
        raise ConfigError(
            f"lattice {lattice.name!r} encodes 2S={lat_spin} sites but --spin {twice_s} was requested"
        )
    if method == "mps":
        if twice_s != 2 or lattice.boundary not in (BOUNDARY_OPEN, BOUNDARY_RING):
            raise ConfigError("the mps method requires a 1D chain with --spin 2")
        _check_site_order(lattice)
    if method in ("mitigated_islands", "mitigated_retry"):
        lattice.sublattice()  # raises NotBipartiteError on odd cycles
    if method == "lcu" and twice_s not in (2, 3):
        raise UnsupportedError("lcu simulation supports 2S in {2, 3}")


def _check_register(lattice: Lattice):
    """Every route's state holds the data qubits, one per site qubit: over the cap, no route could run."""
    n_data, cap = sum(map(lattice.site_twice_spin, range(lattice.n_sites))), max_qubits()
    if n_data > cap:
        raise CapExceededError(f"lattice {lattice.name!r} has {n_data} data qubits, over the cap of {cap} qubits")


def _check_site_order(lattice: Lattice):
    """The mps circuit links the sites 0-1-...-N-1 (and N-1 to 0 on a ring): the lattice must too."""
    n = lattice.n_sites
    path = [(i, i + 1) for i in range(n - 1)]
    if lattice.boundary == BOUNDARY_RING:
        path.append((0, n - 1))
    if sorted(tuple(sorted(link)) for link in lattice.links) != sorted(path):
        chain = "-".join(map(str, range(n))) + ("-0" if lattice.boundary == BOUNDARY_RING else "")
        given = ", ".join(f"{a}-{b}" for a, b in lattice.links)
        raise ConfigError(
            f"the mps method links the sites in order {chain}; lattice {lattice.name!r} has the links {given}"
        )


def _analytic_norm(lattice: Lattice, twice_s: int) -> float | None:
    if twice_s == 2 and lattice.boundary in (BOUNDARY_OPEN, BOUNDARY_RING):
        return analysis.vbs_norm(lattice.n_sites, lattice.boundary, lattice.boundary_spins or ("up", "up"))
    return None


def cmd_prepare(args) -> int:
    lattice = parse_lattice(args.lattice)
    validate_config(lattice, args.spin, args.method)
    if args.shots and args.method != "probabilistic":
        raise UnsupportedError(f"--shots is read only by the probabilistic method, not by {args.method}")
    _check_register(lattice)
    _check_coupling(args, lattice)
    result = ROUTES[args.method](lattice, args.seed)
    oracle, oracle_norm = oracle_vbs_state(lattice)

    report = analysis.Report(
        method=args.method,
        lattice=lattice.to_json_dict(),
        config={"spin": args.spin, "seed": args.seed, "shots": args.shots, "coupling": args.coupling},
    )
    fid = result["state"].spin_fidelity(oracle)
    report.simulated["fidelity_vs_oracle"] = fid
    report.simulated["success_probability"] = result["success_probability"]
    report.analytic["oracle_norm_sq"] = oracle_norm
    closed = _analytic_norm(lattice, args.spin)
    if closed is not None:
        report.analytic["norm_closed_form"] = closed
        report.add_check("norm_vs_closed_form", closed, oracle_norm, 1e-12)
    report.add_check("fidelity_vs_oracle", 1.0, fid, 1e-10)
    if args.method == "probabilistic":
        report.add_check("success_prob_equals_norm", oracle_norm, result["success_probability"], 1e-10)
        if args.shots:
            # the route post-selected as it ran: the draw needs the full register's probabilities, simulated again
            probs, markers = born_probabilities(result["circuit"])
            rate, z = analysis.monte_carlo_success(probs, markers, oracle_norm, args.shots, args.seed)
            report.simulated["mc_rate"] = rate
            report.simulated["mc_z"] = z
            report.add_check("mc_within_3_sigma", 0.0, z, 3.0)
    if args.method == "mps" and lattice.boundary == BOUNDARY_RING:
        report.add_check("mps_ancilla_probability", 0.5, result["success_probability"], 1e-10)
    if args.coupling != "all_to_all":
        _routed_checks(args, result, oracle, report)
    return _finish(report, args)


def _check_coupling(args, lattice: Lattice):
    """Raises unless --coupling can place this method's circuit: checked before any state is built."""
    if args.coupling == "linear" and args.method != "probabilistic":
        raise UnsupportedError("linear routing is wired up for the probabilistic method")
    if args.coupling == "heavy_hex":  # the pair is known by its sites, links and boundary, whatever a file names it
        pair = build_three_link_pair()
        if (lattice.n_sites, lattice.links, lattice.boundary) != (pair.n_sites, pair.links, pair.boundary):
            raise UnsupportedError("heavy-hex placement is declared for the three-link pair")


def _routed_checks(args, result, oracle, report):
    """Route the circuit onto the requested coupling (`_check_coupling` passed it) and re-verify it."""
    if args.coupling == "linear":
        circuit, encoding = result["circuit"], result["encoding"]
        routed = route(circuit, linear_coupling(circuit.n_qubits))
    else:
        routed, encoding = heavy_hex_pair(args.method)
    _, state = simulate_post_selected(routed.circuit, routed.placement[: encoding.n_data_qubits])
    routed_fid = state.spin_fidelity(oracle)
    report.simulated["routed_fidelity_vs_oracle"] = routed_fid
    report.add_check("routed_fidelity_vs_oracle", 1.0, routed_fid, 1e-10)
    report.resources["routed_cnot_depth"] = cnot_depth(routed.circuit, args.coupling)


def cmd_verify(args) -> int:
    lattice = parse_lattice(args.lattice)
    validate_config(lattice, args.spin, args.method)
    _check_register(lattice)
    _check_coupling(args, lattice)
    psi, norm_sq = oracle_vbs_state(lattice)
    result = ROUTES[args.method](lattice, args.seed)

    report = analysis.Report(
        method=args.method,
        lattice=lattice.to_json_dict(),
        config={"spin": args.spin, "seed": args.seed, "shots": args.shots, "coupling": args.coupling},
    )
    # only the fidelities are checked, so the route's states are not kept through the link pass
    report.add_check("route_fidelity", 1.0, result.pop("state").spin_fidelity(psi), 1e-10)
    if args.coupling != "all_to_all":
        _routed_checks(args, result, psi, report)
    closed = _analytic_norm(lattice, args.spin)
    if closed is not None:
        report.analytic["norm_closed_form"] = closed
        report.add_check("norm_vs_closed_form", closed, norm_sq, 1e-12)

    residuals, energies = _link_values(psi, lattice)
    worst = max(residuals.values(), default=0.0)
    report.simulated["max_projector_residual"] = worst
    report.add_check("projector_annihilation", 0.0, worst, 1e-10)
    report.notes["projector_annihilation"] = _worst_link(lattice, residuals)

    if args.spin == 2 and lattice.boundary == BOUNDARY_OPEN:
        energy = sum(energies[frozenset(link)] for link in lattice.links)
        expected = -2.0 * (lattice.n_sites - 1) / 3.0
        report.simulated["aklt_energy"] = energy
        report.add_check("open_chain_energy", expected, energy, 1e-10)
        # every link of the AKLT chain holds -2/3: the worst link deviates most from it
        deviations = {pair: abs(e + 2.0 / 3.0) for pair, e in energies.items()}
        report.notes["open_chain_energy"] = _worst_link(lattice, deviations)
    report.analytic["norm_sq"] = norm_sq
    return _finish(report, args)


def _link_values(psi: np.ndarray, lattice: Lattice) -> tuple[dict, dict]:
    """||P psi|| and (spin-1 pairs only) <H> of each site pair of a spin-basis state, keyed by frozenset({a, b}).

    ||P psi|| is ||R psi||, R the AKLT projector's rows on two spin sites (`spinops.link_operators`, 2S read
    from the pair's axis size), applied once per distinct pair: a sum of squares, so round-off stays near
    1e-16 (sqrt(<P>) ~3e-9).  On spin 1 the AKLT term is H = 2P - 2/3, so <H> = 2 ||R psi||^2 / ||psi||^2 - 2/3.
    """
    norm_sq = float(np.vdot(psi, psi).real)
    residuals, energies = {}, {}
    for pair in dict.fromkeys(frozenset(link) for link in lattice.links):  # (0, 1) and (1, 0): one pair
        a, b = sorted(pair)
        twice_s = psi.shape[a] - 1
        applied = _rows_on_pair(psi, link_operators(twice_s), a, b)
        weight = float(np.vdot(applied, applied).real)
        residuals[pair] = math.sqrt(weight)
        if twice_s == 2:
            energies[pair] = 2.0 * weight / norm_sq - 2.0 / 3.0
    return residuals, energies


def _rows_on_pair(psi: np.ndarray, rows: np.ndarray, a: int, b: int) -> np.ndarray:
    """`rows` on axes a < b of psi: one gemm per left index of psi's view (left, d*d, right) if they neighbour."""
    d = psi.shape[a]
    if b != a + 1:  # a ring closure, or a link between distant sites
        return np.tensordot(rows.reshape(-1, d, d), psi, axes=([1, 2], [a, b]))
    view = psi.reshape(math.prod(psi.shape[:a]), d * d, -1)  # a reshape, not a copy
    return view[..., 0] @ rows.T if b == psi.ndim - 1 else rows @ view  # the last pair: one gemm in all


def _worst_link(lattice: Lattice, deviation: dict) -> str:
    """'worst link a-b': the first listed link whose site pair deviates most."""
    a, b = max(lattice.links, key=lambda link: deviation[frozenset(link)])
    return f"worst link {a}-{b}"


def cmd_resources(args) -> int:
    report = analysis.Report(
        method="resource_grid",
        lattice={"name": "declared"},
        config={"spin": args.spin, "coupling": args.coupling},
    )
    grid = analysis.table_i_grid()
    report.resources["depth_grid"] = grid
    for row in grid:
        report.add_check(
            f"depth_{row['twice_s']}_{row['method']}_{row['coupling']}",
            row["table_value"],
            row["cnot_depth"],
            0.0,
        )
    report.resources["lcu_spin2"] = {**lcu_spin2_resources(), "twice_s": 4}
    reps = analysis.repetitions_table(2) + analysis.repetitions_table(3)
    report.resources["repetitions"] = reps
    for row in reps:
        report.add_check(
            f"repetitions_2s{row['twice_s']}_N{row['n_sites']}_{'mit' if row['mitigated'] else 'raw'}",
            1.0,
            1.0 if row["match"] else 0.0,
            0.0,
        )
    return _finish(report, args)


def cmd_emit_qasm(args) -> int:
    lattice = parse_lattice(args.lattice)
    validate_config(lattice, args.spin, "probabilistic")
    circ = probabilistic_method_circuit(assign_qubits(lattice))
    _write(emit_qasm(circ, args.qasm_mode), args.out)
    if args.out:
        print(f"wrote {args.out}")
    return EXIT_OK


def _write(text: str, out: str | None) -> None:
    """Write `text` to the --out file, or to stdout without one; an OSError exits 5 (`main`)."""
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _finish(report: analysis.Report, args) -> int:
    _write(report.to_json(), args.out)
    for c in report.checks:
        status = "pass" if c["pass"] else "FAIL"
        note = "" if c["pass"] or c["name"] not in report.notes else f" ({report.notes[c['name']]})"
        print(f"[{status}] {c['name']}: expected={c['expected']:.12g} actual={c['actual']:.12g}{note}", file=sys.stderr)
    return EXIT_OK if report.all_passed() else EXIT_CHECK_FAILED


@functools.cache  # argparse keeps no state between parses: every main call gets a fresh namespace
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="vbsprep", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--spin", type=int, default=2, help="2S of every lattice site")
    common.add_argument("--lattice", default="chain:3:open:aligned")
    common.add_argument("--method", default="probabilistic", choices=METHODS)
    common.add_argument("--coupling", default="all_to_all", choices=COUPLINGS)
    common.add_argument("--shots", type=int, default=0)
    common.add_argument("--seed", type=int, default=7)
    common.add_argument("--out", default=None)
    common.add_argument("--qasm-mode", default="structural", choices=("structural", "basis"))
    sub.add_parser("prepare", parents=[common]).set_defaults(func=cmd_prepare)
    sub.add_parser("verify", parents=[common]).set_defaults(func=cmd_verify)
    sub.add_parser("resources", parents=[common]).set_defaults(func=cmd_resources)
    sub.add_parser("emit-qasm", parents=[common]).set_defaults(func=cmd_emit_qasm)
    return ap


def _check_options_read(args):
    defaults = vars(build_parser().parse_args([args.command]))
    for name, value in vars(args).items():
        if name not in OPTIONS_READ[args.command] and value != defaults[name]:
            raise UnsupportedError(f"--{name.replace('_', '-')} {value} is not read by {args.command}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_options_read(args)
        if args.seed < 0:  # numpy's generators reject it, and random.Random(-n) draws the rounds of seed n
            raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
        if args.shots < 0:  # else the route runs before the draw rejects it
            raise ConfigError(f"--shots must be a non-negative integer, got {args.shots}")
        return args.func(args)
    except (MissingCostError, UnsupportedError) as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (ConfigError, NotBipartiteError, CapExceededError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except VbsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except OSError as exc:  # --out cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
