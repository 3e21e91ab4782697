"""Outside-in tracing of hartree's layers, with no change to the program.

``Tracer.install`` wraps each public function named in ``SPANS`` and binds
the wrapper in every loaded ``hartree`` module that holds the original
function object, because modules import each other's functions by name
(``from ..encoding import encode_operator``). ``Tracer.uninstall`` puts the
originals back. Every wrapped call records a span: name, start, end and the
span that was open when it began. Spans stay in memory until ``save``.

Per pass the tracer reports, for each span, the number of calls and the self
time: the span's duration minus the time covered by its child spans. A few
hooks read counts off the arguments and results of the calls they wrap.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

# Span name -> (module that defines the function, attribute name).
SPANS = {
    "io_cli.main": ("hartree.io_cli.cli", "main"),
    "io_cli.run_pipeline": ("hartree.io_cli.pipeline", "run_pipeline"),
    "io_cli.dissociation_curve": ("hartree.io_cli.pipeline",
                                  "dissociation_curve"),
    "io_cli.load_problem": ("hartree.io_cli.fixtures", "load_problem"),
    "io_cli.exact_eigensolve": ("hartree.io_cli.oracle", "exact_eigensolve"),
    "fermion.build_molecular_hamiltonian": ("hartree.fermion",
                                            "build_molecular_hamiltonian"),
    "encoding.encode_operator": ("hartree.encoding", "encode_operator"),
    "reduction.reduce_problem": ("hartree.reduction", "reduce_problem"),
    "reduction.taper_two_qubits": ("hartree.reduction", "taper_two_qubits"),
    "pauli.to_matrix": ("hartree.pauli", "to_matrix"),
    "pauli.apply_to_statevector": ("hartree.pauli", "apply_to_statevector"),
    "pauli.expectation": ("hartree.pauli", "expectation"),
    "simulator.apply_gate": ("hartree.simulator", "apply_gate"),
    "simulator.run_noisy_trajectory": ("hartree.simulator",
                                       "run_noisy_trajectory"),
    "simulator.sample_expectation": ("hartree.simulator",
                                     "sample_expectation"),
    "simulator.qpe_distribution": ("hartree.simulator", "qpe_distribution"),
    "vqe.optimize": ("hartree.vqe", "optimize"),
    "vqe.estimate_energy": ("hartree.vqe", "estimate_energy"),
    "vqe.analytic_gradient": ("hartree.vqe", "analytic_gradient"),
    "spectra.qse_solve": ("hartree.spectra", "qse_solve"),
    "mitigation.noise_scaled_series": ("hartree.mitigation",
                                       "noise_scaled_series"),
    "mitigation.noisy_expectation": ("hartree.mitigation",
                                     "noisy_expectation"),
    "mitigation.pec_estimate": ("hartree.mitigation", "pec_estimate"),
    "mitigation.stabiliser_postselect": ("hartree.mitigation",
                                         "stabiliser_postselect"),
}

# Counters read off calls; name -> unit. error_free_frac is computed from
# the circuit's gate arities and the noise rates, not observed.
EXTRAS = {
    "io_cli.oracle_max_dim": "count",
    "encoding.terms_in": "count",
    "encoding.terms_out": "count",
    "pauli.apply_terms": "count",
    "simulator.error_free_frac": "ratio",
    "mitigation.retained_frac": "ratio",
}


def _arg(args, kwargs, position, name, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


class Tracer:
    """Span recorder; one per run, installed only around traced passes."""

    def __init__(self):
        self.names = list(SPANS)
        self._ids = {name: k for k, name in enumerate(self.names)}
        self._origin = perf_counter()
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.marks: list[tuple[int, int, str]] = []  # (first span, pass, job)
        self._stack: list[int] = []
        self._child_time: list[float] = []
        self._rebound: list[tuple[object, str, object]] = []
        self.passes: list[dict[str, float]] = []
        self._reset_pass()

    # ------------------------------------------------------------ binding

    def install(self):
        if self._rebound:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "hartree"
                                         or name.startswith("hartree."))]
        for span, (module_name, attr) in SPANS.items():
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(self._ids[span], original,
                                 _HOOKS.get(span))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebound.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for module, key, original in reversed(self._rebound):
            setattr(module, key, original)
        self._rebound.clear()

    def _wrap(self, name_id, function, hook):
        stack, child_time = self._stack, self._child_time
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            child_time.append(0.0)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                inner = child_time.pop()
                duration = end - start
                if child_time:
                    child_time[-1] += duration
                starts[index] = start - self._origin
                ends[index] = end - self._origin
                self._calls[name_id] += 1
                self._self_s[name_id] += duration - inner
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------- passes

    def _reset_pass(self):
        self._calls = [0] * len(self.names)
        self._self_s = [0.0] * len(self.names)
        self.oracle_max_dim = 0
        self.terms_in = self.terms_out = self.apply_terms = 0
        self.error_free_sum = 0.0
        self.trajectories = 0
        self.shots_kept = 0.0
        self.shots_total = 0

    def mark(self, pass_index: int, job: str):
        self.marks.append((len(self.span_name), pass_index, job))

    def end_pass(self) -> dict[str, float]:
        """Close the current pass and return its per-layer metrics."""
        metrics = {}
        for k, name in enumerate(self.names):
            metrics[f"{name}.calls"] = self._calls[k]
            metrics[f"{name}.self_s"] = self._self_s[k]
        metrics["io_cli.oracle_max_dim"] = self.oracle_max_dim
        metrics["encoding.terms_in"] = self.terms_in
        metrics["encoding.terms_out"] = self.terms_out
        metrics["pauli.apply_terms"] = self.apply_terms
        metrics["simulator.error_free_frac"] = (
            self.error_free_sum / self.trajectories if self.trajectories
            else 0.0)
        metrics["mitigation.retained_frac"] = (
            self.shots_kept / self.shots_total if self.shots_total else 0.0)
        self.passes.append(metrics)
        self._reset_pass()
        return metrics

    def save(self, path: Path):
        """Write every recorded span, and the job each one belongs to."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            mark_span=np.array([m[0] for m in self.marks], dtype=np.int64),
            mark_pass=np.array([m[1] for m in self.marks], dtype=np.int64),
            mark_job=np.array([m[2] for m in self.marks]))


# ------------------------------------------------------------------ hooks


def _eigensolve(tracer, args, kwargs, result):
    h = _arg(args, kwargs, 0, "h")
    n = _arg(args, kwargs, 2, "n_qubits")
    n = n if n is not None else max(h.n_qubits, 1)
    tracer.oracle_max_dim = max(tracer.oracle_max_dim, 1 << n)


def _encode(tracer, args, kwargs, result):
    tracer.terms_in += len(_arg(args, kwargs, 0, "s"))
    tracer.terms_out += len(result)


def _apply(tracer, args, kwargs, result):
    tracer.apply_terms += len(_arg(args, kwargs, 0, "s"))


def _trajectory(tracer, args, kwargs, result):
    circuit = _arg(args, kwargs, 0, "circuit")
    noise = _arg(args, kwargs, 2, "noise")
    tracer.error_free_sum += math.prod(
        1.0 - noise.rate_for(len(gate.support())) for gate in circuit.gates)
    tracer.trajectories += 1


def _postselect(tracer, args, kwargs, result):
    shots = _arg(args, kwargs, 5, "shots")
    tracer.shots_kept += result[1] * shots
    tracer.shots_total += shots


_HOOKS = {
    "io_cli.exact_eigensolve": _eigensolve,
    "encoding.encode_operator": _encode,
    "pauli.apply_to_statevector": _apply,
    "simulator.run_noisy_trajectory": _trajectory,
    "mitigation.stabiliser_postselect": _postselect,
}
