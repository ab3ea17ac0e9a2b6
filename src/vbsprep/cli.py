"""Command-line front end.

Subcommands: prepare, verify, resources, emit-qasm.  Lattices come from a
mini-language (chain:N:open:aligned, chain:N:ring, three-link-pair,
three-link-ring:N, honeycomb:R:C, file:PATH).  Exit codes: 0 success,
2 invalid configuration, 3 verification check failed, 4 missing declared
cost or unsupported combination, 5 I/O failure.
"""
from __future__ import annotations

import argparse
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
from .ir import cnot_depth
from .lattice import (
    Lattice,
    assign_qubits,
    build_chain,
    build_honeycomb_patch,
    build_three_link_pair,
    build_three_link_ring,
    lattice_from_json,
)
from .methods import ROUTES, oracle_vbs_state
from .qasm import emit_qasm
from .spinops import SpinValue, link_operators

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECK_FAILED = 3
EXIT_UNSUPPORTED = 4
EXIT_IO = 5

METHODS = tuple(ROUTES)
COUPLINGS = ("all_to_all", "linear", "heavy_hex")


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
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; pick one of {METHODS}")
    lat_spin = lattice.uniform_twice_spin()
    if lat_spin != twice_s:
        raise ConfigError(
            f"lattice {lattice.name!r} encodes 2S={lat_spin} sites but --spin {twice_s} was requested"
        )
    if method == "mps":
        if twice_s != 2 or lattice.boundary not in ("open_chain", "ring"):
            raise ConfigError("the mps method requires a 1D chain with --spin 2")
        _check_site_order(lattice)
    if method in ("mitigated_islands", "mitigated_retry"):
        lattice.sublattice()  # raises NotBipartiteError on odd cycles
    if method == "lcu" and twice_s not in (2, 3):
        raise UnsupportedError("lcu simulation supports 2S in {2, 3}")


def _check_site_order(lattice: Lattice):
    """The mps circuit links the sites 0-1-...-N-1 (and N-1 to 0 on a ring): the lattice must too."""
    n = lattice.n_sites
    path = [(i, i + 1) for i in range(n - 1)]
    if lattice.boundary == "ring":
        path.append((0, n - 1))
    if sorted(tuple(sorted(link)) for link in lattice.links) != sorted(path):
        chain = "-".join(map(str, range(n))) + ("-0" if lattice.boundary == "ring" else "")
        given = ", ".join(f"{a}-{b}" for a, b in lattice.links)
        raise ConfigError(
            f"the mps method links the sites in order {chain}; lattice {lattice.name!r} has the links {given}"
        )


def _analytic_norm(lattice: Lattice, twice_s: int) -> float | None:
    if twice_s == 2 and lattice.boundary in ("open_chain", "ring"):
        boundary = "ring" if lattice.boundary == "ring" else "open"
        return analysis.vbs_norm(2, lattice.n_sites, boundary, lattice.boundary_spins or ("up", "up"))
    return None


def cmd_prepare(args) -> int:
    lattice = parse_lattice(args.lattice)
    validate_config(lattice, args.spin, args.method)
    s = SpinValue(args.spin)
    result = ROUTES[args.method](lattice, s, args.seed)
    oracle, oracle_norm = oracle_vbs_state(lattice, s)

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
            rate, z = analysis.monte_carlo_success(
                result["simulated"], result["markers"], oracle_norm, args.shots, args.seed
            )
            report.simulated["mc_rate"] = rate
            report.simulated["mc_z"] = z
            report.add_check("mc_within_3_sigma", 0.0, z, 3.0)
    if args.method == "mps" and lattice.boundary == "ring":
        report.add_check("mps_ancilla_probability", 0.5, result["success_probability"], 1e-10)
    if args.coupling != "all_to_all":
        _routed_checks(args, lattice, result, oracle, report)
    return _finish(report, args)


def _routed_checks(args, lattice, result, oracle, report):
    """Route the circuit onto the requested coupling and re-verify it."""
    from .ir import post_select, simulate_circuit
    from .lattice import linear_coupling
    from .routing import heavy_hex_pair_mitigated, heavy_hex_pair_probabilistic, route

    if args.coupling == "linear":
        if args.method != "probabilistic":
            raise UnsupportedError("linear routing is wired up for the probabilistic method")
        encoding = result["encoding"]
        routed = route(result["circuit"], linear_coupling(encoding.total_qubits))
    else:  # heavy_hex
        if lattice.name != "three-link-pair":
            raise UnsupportedError("heavy-hex placement is declared for the three-link pair")
        if args.method == "probabilistic":
            routed, _, encoding = heavy_hex_pair_probabilistic()
        elif args.method == "mitigated_islands":
            routed, _, encoding = heavy_hex_pair_mitigated()
        else:
            raise UnsupportedError("heavy-hex placement covers probabilistic and mitigated_islands")
    state, markers = simulate_circuit(routed.circuit)
    _, state = post_select(state, markers, routed.placement[: encoding.n_data_qubits])
    routed_fid = state.spin_fidelity(oracle)
    report.simulated["routed_fidelity_vs_oracle"] = routed_fid
    report.add_check("routed_fidelity_vs_oracle", 1.0, routed_fid, 1e-10)
    report.resources["routed_cnot_depth"] = cnot_depth(routed.circuit, args.coupling)


def cmd_verify(args) -> int:
    lattice = parse_lattice(args.lattice)
    validate_config(lattice, args.spin, args.method)
    s = SpinValue(args.spin)
    psi, norm_sq = oracle_vbs_state(lattice, s)
    # only the route's fidelity is checked, so its states are not kept through the link pass
    route_fidelity = ROUTES[args.method](lattice, s, args.seed)["state"].spin_fidelity(psi)

    report = analysis.Report(
        method=args.method,
        lattice=lattice.to_json_dict(),
        config={"spin": args.spin, "seed": args.seed, "shots": args.shots, "coupling": args.coupling},
    )
    report.add_check("route_fidelity", 1.0, route_fidelity, 1e-10)
    closed = _analytic_norm(lattice, args.spin)
    if closed is not None:
        report.analytic["norm_closed_form"] = closed
        report.add_check("norm_vs_closed_form", closed, norm_sq, 1e-12)

    residuals, energies = _link_values(psi, lattice, s)
    worst = max(residuals.values(), default=0.0)
    report.simulated["max_projector_residual"] = worst
    report.add_check("projector_annihilation", 0.0, worst, 1e-10)
    report.notes["projector_annihilation"] = _worst_link(lattice, residuals)

    if s.twice_s == 2 and lattice.boundary == "open_chain":
        energy = sum(energies[frozenset(link)] for link in lattice.links)
        expected = -2.0 * (lattice.n_sites - 1) / 3.0
        report.simulated["aklt_energy"] = energy
        report.add_check("open_chain_energy", expected, energy, 1e-10)
        # every link of the AKLT chain holds -2/3: the worst link deviates most from it
        deviations = {pair: abs(e + 2.0 / 3.0) for pair, e in energies.items()}
        report.notes["open_chain_energy"] = _worst_link(lattice, deviations)
    report.analytic["norm_sq"] = norm_sq
    return _finish(report, args)


def _link_values(psi: np.ndarray, lattice: Lattice, s: SpinValue) -> tuple[dict, dict]:
    """||P psi|| and (spin 1 only) <H> of each site pair of a spin-basis state, keyed by frozenset({a, b}).

    P and H are the AKLT projector and term on two spin sites
    (`spinops.link_operators`), applied once per distinct pair.  ||P psi||
    stays a sum of squares, so round-off stays near 1e-16 (sqrt(<P>) ~3e-9).
    """
    proj, term = link_operators(s.twice_s)
    norm_sq = float(np.vdot(psi, psi).real)
    residuals: dict = {}
    energies: dict = {}
    for pair, (a, b) in {frozenset(link): link for link in lattice.links}.items():  # (0, 1) and (1, 0): one pair
        applied = _on_pair(psi, proj, a, b)
        residuals[pair] = math.sqrt(float(np.vdot(applied, applied).real))
        if term is not None:
            energies[pair] = float(np.vdot(np.moveaxis(psi, (a, b), (0, 1)), _on_pair(psi, term, a, b)).real) / norm_sq
    return residuals, energies


def _on_pair(psi: np.ndarray, op: np.ndarray, a: int, b: int) -> np.ndarray:
    """`op` on axes a and b of psi (a the more significant), those axes moved to the front."""
    d = psi.shape[a]
    return np.tensordot(op.reshape(d, d, d, d), psi, axes=([2, 3], [a, b]))


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
    report.resources["lcu_spin2"] = analysis.resource_summary(4, "lcu", "all_to_all")
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
    s = SpinValue(args.spin)
    encoding = assign_qubits(lattice, "hadamard_all")
    circ = probabilistic_method_circuit(lattice, encoding, s)
    text = emit_qasm(circ, args.qasm_mode)
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _finish(report: analysis.Report, args) -> int:
    text = report.to_json()
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        sys.stdout.write(text)
    for c in report.checks:
        status = "pass" if c["pass"] else "FAIL"
        note = "" if c["pass"] or c["name"] not in report.notes else f" ({report.notes[c['name']]})"
        print(f"[{status}] {c['name']}: expected={c['expected']:.12g} actual={c['actual']:.12g}{note}", file=sys.stderr)
    return EXIT_OK if report.all_passed() else EXIT_CHECK_FAILED


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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
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


if __name__ == "__main__":
    sys.exit(main())
