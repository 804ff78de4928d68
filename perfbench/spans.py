"""In-memory spans around the program's public functions.

`Tracer.install()` replaces each public function of `model`, `baes`,
`thermo`, `scaling` and the `workbench` runner and emitter at its module
attribute with a wrapper that records a span (name, start, end, parent),
timed in process CPU time like the workloads' timed calls.
The program looks these functions up through the module at call time,
so calls made inside the program are caught as well as the benchmark's
own.  Two hot helpers (`baes.theta_m`, `thermo.kernel_a`) are left
unwrapped, as their spans would cost more than the work they cover.
`ChainOperator.matvec` calls and the `nfev` of every Levenberg-Marquardt
call in `scaling` are counted without spans.  `uninstall()` puts the
originals back.  Nothing is written out until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from dataclasses import dataclass, field

WRAPPED = {
    "twistbethe.model": ("build_hamiltonian", "build_momentum_charge", "build_h2_charge",
                         "transfer_matrix", "ed_spectrum", "ground_space",
                         "doublet_block"),
    "twistbethe.baes": ("ground_quantum_numbers", "excited_quantum_numbers",
                        "solve_log_baes", "energy_hom", "counting_function",
                        "hole_rapidity", "solve_inhom_baes", "bae_relative_residual",
                        "tq_eigenvalue", "energy_inhom", "charge_from_roots",
                        "inhom_contribution"),
    "twistbethe.thermo": ("e0_density", "hole_energy", "twisted_boundary_energy",
                          "excitation_gap_tl", "ground_energy_tl",
                          "hole_quantization_energy", "density_fourier",
                          "energy_via_density"),
    "twistbethe.scaling": ("fit", "extrapolate", "fit_with_window"),
    "twistbethe.workbench.runner": ("run",),
    "twistbethe.workbench.emit": ("emit",),
}

# every per-layer metric with its unit, in report order
PER_LAYER = {
    "model.build_hamiltonian_s": "s", "model.ed_dense_s": "s",
    "model.ed_iterative_s": "s", "model.matvecs": "count",
    "model.transfer_matrix_s": "s", "model.transfer_matrix_calls": "count",
    "model.ground_space_self_s": "s", "baes.solve_inhom_baes_self_s": "s",
    "baes.solve_log_baes_s": "s", "baes.newton_iterations": "count",
    "baes.inhom_contribution_self_s": "s", "thermo.reference_s": "s",
    "scaling.fit_s": "s", "scaling.lm_evals": "count",
    "workbench.run_self_s": "s", "workbench.emit_s": "s",
    "workbench.warm_rerun_s": "s", "trace.overhead_s": "s",
}


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    tag: str = ""
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    _stack: list = field(default_factory=list)
    _undo: list = field(default_factory=list)

    def install(self) -> None:
        for path, names in WRAPPED.items():
            # modules by import path: the workbench package re-exports the
            # function `emit` under the emitter module's name
            module = importlib.import_module(path)
            layer = path.split(".")[1]
            for name in names:
                self._patch(module, name,
                            self._span_wrapper(f"{layer}.{name}", getattr(module, name)))
        model = importlib.import_module("twistbethe.model")
        scaling = importlib.import_module("twistbethe.scaling")
        self._patch(model.ChainOperator, "matvec",
                    self._count_wrapper("model.matvecs", model.ChainOperator.matvec,
                                        lambda result: 1))
        self._patch(scaling, "least_squares",
                    self._count_wrapper("scaling.lm_evals", scaling.least_squares,
                                        lambda result: result.nfev))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def _patch(self, owner, name, wrapper) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _span_wrapper(self, name, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span = Span(name, stack[-1] if stack else None, time.process_time())
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.process_time()
                stack.pop()
                if span.parent is not None:
                    tracer.spans[span.parent].children_s += span.duration
            if name == "model.ed_spectrum":
                span.tag = (result[0] if isinstance(result, tuple) else result).method
            elif name == "baes.solve_log_baes":
                tracer.counts["baes.newton_iterations"] += result.iterations
            return result

        return wrapper

    def _count_wrapper(self, name, original, amount):
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            counts[name] += amount(result)
            return result

        return wrapper

    def layer_metrics(self) -> dict:
        """Per-layer totals over the spans recorded since the last reset;
        `_self_s` is a span's duration minus that of its direct children."""
        spans = self.spans

        def total(name, tag=None, attr="duration"):
            return sum(getattr(s, attr) for s in spans
                       if s.name == name and (tag is None or s.tag == tag))

        def top_level(layer):
            # spans of a layer not nested inside another span of that layer
            return sum(s.duration for s in spans if s.name.startswith(layer)
                       and (s.parent is None
                            or not spans[s.parent].name.startswith(layer)))

        return {
            "model.build_hamiltonian_s": total("model.build_hamiltonian"),
            "model.ed_dense_s": total("model.ed_spectrum", "dense"),
            "model.ed_iterative_s": total("model.ed_spectrum", "iterative"),
            "model.matvecs": self.counts["model.matvecs"],
            "model.transfer_matrix_s": total("model.transfer_matrix"),
            "model.transfer_matrix_calls": sum(s.name == "model.transfer_matrix"
                                               for s in spans),
            "model.ground_space_self_s": total("model.ground_space", attr="self_s"),
            "baes.solve_inhom_baes_self_s": total("baes.solve_inhom_baes",
                                                  attr="self_s"),
            "baes.solve_log_baes_s": total("baes.solve_log_baes"),
            "baes.newton_iterations": self.counts["baes.newton_iterations"],
            "baes.inhom_contribution_self_s": total("baes.inhom_contribution",
                                                    attr="self_s"),
            "thermo.reference_s": top_level("thermo."),
            "scaling.fit_s": top_level("scaling."),
            "scaling.lm_evals": self.counts["scaling.lm_evals"],
            "workbench.run_self_s": total("workbench.run", attr="self_s"),
            "workbench.emit_s": total("workbench.emit"),
        }
