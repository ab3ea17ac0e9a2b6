"""Span tracer that times vbsprep's layers from outside the package.

`install` wraps every public function and public method of each layer
module (one module under src/vbsprep/), then rebinds every name in the
package that referred to an original, so that calls through names other
modules imported (`cli.run_probabilistic`, `methods.simulate_circuit`, ...)
are timed too.  Private helpers are not wrapped: their time counts as self
time of the public caller.

Each span records (id, name, start, end, parent id, job id); spans stay in
memory until `write_spans`.  A span's self time is its duration minus the
durations of its child spans; spans nest on one thread, so children never
overlap and the self times of all spans add up to the root spans' time.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import time
from collections import Counter, defaultdict

PACKAGE = "vbsprep"
LAYERS = (
    "analysis", "builders", "cli", "ir", "lattice", "methods", "mpsprep",
    "qasm", "routing", "schmidt", "spinops", "statesim", "symmetrize",
)
BYTES_PER_AMPLITUDE = 16  # complex128


class Tracer:
    def __init__(self):
        self.job = -1
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.open_layers: Counter = Counter()
        self.peak_qubits = 0
        self.yield_sum = 0.0
        self._stack: list[list] = []  # open spans: [id, start, child seconds, name]
        self._ids = itertools.count(1)
        self._last_error = None
        self.impossible_error: type | tuple = ()

    def wrap(self, fn, layer: str, name, probe=None):
        """Return `fn` timed as a span; `name` is a string or a function of the call's arguments."""
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter
        self_s, calls, open_layers = self.self_s, self.calls, self.open_layers
        fixed = name if isinstance(name, str) else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = fixed or name(args, kwargs)
            frame = [next(ids), clock(), 0.0, span]
            stack.append(frame)
            open_layers[layer] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._note_error(exc)
                raise
            finally:
                end = clock()
                open_layers[layer] -= 1
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                    parent = stack[-1][0]
                else:
                    parent = 0
                spans.append((frame[0], span, frame[1], end, parent, tracer.job))
                self_s[span] += duration - frame[2]
                calls[span] += 1
            if probe is not None:
                probe(tracer, args, result)
            return result

        return traced

    def _note_error(self, exc: BaseException) -> None:
        # An exception is seen once per span it unwinds through; count it once.
        if exc is not self._last_error and isinstance(exc, self.impossible_error):
            self.counts["statesim.impossible_outcomes"] += 1
        self._last_error = exc

    def touch_state(self, n_qubits: int) -> None:
        self.counts["statesim.amp_bytes"] += BYTES_PER_AMPLITUDE << n_qubits
        self.peak_qubits = max(self.peak_qubits, n_qubits)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\tjob\n")
            fh.writelines(f"{s[0]}\t{s[1]}\t{s[2]:.9f}\t{s[3]:.9f}\t{s[4]}\t{s[5]}\n" for s in self.spans)


# -- probes: counts taken at layer boundaries ---------------------------------

def _state_method(tracer, args, result):
    tracer.touch_state(args[0].n_qubits)


def _state_constructor(tracer, args, result):
    tracer.touch_state(result.n_qubits)


def _simulated(tracer, args, result):
    # simulate_circuit applies every gate except the markers it returns
    tracer.counts["ir.gates_simulated"] += len(args[0].gates) - len(result[1])


def _post_selected(tracer, args, result):
    tracer.counts["ir.markers_projected"] += len(args[1])
    tracer.counts["ir.post_selects"] += 1
    tracer.yield_sum += result[0]


def _retried(tracer, args, result):
    rounds = result["rounds_used"]
    tracer.counts["methods.retry_rounds"] += sum(rounds.values())
    tracer.counts["methods.retry_islands"] += len(rounds)


def _gate_added(tracer, args, result):
    if tracer.open_layers["builders"]:
        tracer.counts["builders.gates_emitted"] += 1


PROBES = {
    "ir.simulate_circuit": _simulated,
    "ir.post_select": _post_selected,
    "ir.Circuit.add": _gate_added,
    "methods.run_mitigated_retry": _retried,
}


def _apply_name(args, kwargs):
    qubits = args[2] if len(args) > 2 else kwargs["qubits"]
    k = len(qubits)
    return f"statesim.Statevector.apply_unitary/k{k if k < 4 else '4plus'}"


def _wrap_class(tracer: Tracer, layer: str, cls: type) -> None:
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        is_state = layer == "statesim" and cls.__name__ == "Statevector"
        if isinstance(member, (classmethod, staticmethod)):
            probe = _state_constructor if is_state else PROBES.get(name)
            setattr(cls, attr, type(member)(tracer.wrap(member.__func__, layer, name, probe)))
        elif inspect.isfunction(member):
            probe = _state_method if is_state else PROBES.get(name)
            span = _apply_name if name == "statesim.Statevector.apply_unitary" else name
            setattr(cls, attr, tracer.wrap(member, layer, span, probe))


def install(tracer: Tracer) -> None:
    """Wrap the public functions and methods of every layer module."""
    modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
    tracer.impossible_error = importlib.import_module(f"{PACKAGE}.errors").ImpossibleOutcomeError
    replaced: dict[int, tuple] = {}
    for layer, mod in zip(LAYERS, modules):
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, type):
                _wrap_class(tracer, layer, obj)
            elif callable(obj):
                name = f"{layer}.{attr}"
                replaced[id(obj)] = (obj, tracer.wrap(obj, layer, name, PROBES.get(name)))
    for mod in [importlib.import_module(PACKAGE), *modules]:
        for attr, obj in list(vars(mod).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])


# -- metrics -------------------------------------------------------------------

# Per-function groups the per-layer metrics name, by span-name prefix.
GROUPS = (
    ("statesim.apply", ("statesim.Statevector.apply_unitary/",)),
    ("statesim.nonunitary", ("statesim.Statevector.apply_nonunitary",)),
    ("statesim.expectation", ("statesim.Statevector.expectation",)),
    ("statesim.copy", ("statesim.Statevector.copy",)),
    ("statesim.project", ("statesim.Statevector.project_qubit",)),
    ("statesim.sample", ("statesim.Statevector.sample",)),
    ("ir.simulate", ("ir.simulate_circuit",)),
    ("ir.post_select", ("ir.post_select",)),
    ("ir.depth", ("ir.cnot_depth",)),
    ("methods.route", ("methods.run_",)),
    ("methods.oracle", ("methods.oracle_vbs_state",)),
    ("methods.data_state", ("methods.data_state",)),
    ("analysis.mc", ("analysis.monte_carlo_success",)),
    ("analysis.report", ("analysis.Report.",)),
)
WIDTHS = ("k1", "k2", "k3", "k4plus")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of everything the tracer has seen."""
    out: dict[str, float] = {}

    def total(table, prefixes):
        return sum(v for k, v in table.items() if k.startswith(prefixes))

    for layer in LAYERS:
        out[f"{layer}.calls"] = total(tracer.calls, (layer + ".",))
        out[f"{layer}.self_s"] = total(tracer.self_s, (layer + ".",))
    for group, prefixes in GROUPS:
        out[f"{group}.calls"] = total(tracer.calls, prefixes)
        out[f"{group}.self_s"] = total(tracer.self_s, prefixes)
    for width in WIDTHS:
        out[f"statesim.apply.{width}.self_s"] = tracer.self_s.get(f"statesim.Statevector.apply_unitary/{width}", 0.0)
    out["analysis.tables.self_s"] = out["analysis.self_s"] - out["analysis.mc.self_s"] - out["analysis.report.self_s"]
    counts = tracer.counts
    for key in ("statesim.amp_bytes", "statesim.impossible_outcomes", "ir.gates_simulated",
                "ir.markers_projected", "methods.retry_rounds", "builders.gates_emitted"):
        out[key] = counts[key]
    out["statesim.peak_qubits"] = tracer.peak_qubits
    out["ir.postselect_yield"] = _ratio(tracer.yield_sum, counts["ir.post_selects"])
    out["methods.retry_yield"] = _ratio(counts["methods.retry_islands"], counts["methods.retry_rounds"])
    out["trace.spans"] = len(tracer.spans)
    out["trace.self_s"] = sum(tracer.self_s.values())
    return out
