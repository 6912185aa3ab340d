"""Span tracing from outside the program.

:class:`Tracer` replaces public functions of the ``memsolve`` modules
with wrappers that record a span (name, start, end, parent) per call and
a few counts read from the call's arguments and result.  Spans stay in
memory until :meth:`Tracer.layer_metrics` reduces them.  Wrappers are
installed only around traced passes; :meth:`Tracer.uninstall` puts every
original attribute back.

Each target is patched where its callers look it up: ``cli`` imports
``lower`` and ``simulate`` by name, so ``memsolve.cli.lower`` and
``memsolve.tolerance.lower`` are separate call sites of one function.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from dataclasses import dataclass, field


def _bind(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _kernel_counts(fn, args, kwargs, result) -> dict:
    a = _bind(fn, args, kwargs)
    return {"instr": int(a["code"].shape[0]), "steps": int(a["n_steps"])}


def _batch_counts(fn, args, kwargs, result) -> dict:
    a = _bind(fn, args, kwargs)
    return {
        "instr": int(a["code"].shape[0]),
        "steps": int(a["n_steps"]),
        "lanes": int(a["y0"].shape[1]),
        "dead": int((a["status"] != 0).sum()),
    }


def _lower_counts(fn, args, kwargs, result) -> dict:
    return {"instr": int(result.program.code.shape[0])}


def _solve_ide_counts(fn, args, kwargs, result) -> dict:
    a = _bind(fn, args, kwargs)
    return {"steps": max(int(round(a["t_end"] / a["dt"])), 1)}


def _stability_counts(fn, args, kwargs, result) -> dict:
    return {"iterations": result.iterations, "ok": result.iterations - len(result.failed)}


def _csv_counts(fn, args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(_bind(fn, args, kwargs)["path"])}


# (module[:class], attribute, span name, counts hook)
TARGETS = (
    ("memsolve.cli", "main", "cli.main", None),
    ("memsolve.cli", "load_equation_spec", "compiler.load_equation_spec", None),
    ("memsolve.cli", "compile_equation", "compiler.compile_equation", None),
    ("memsolve.cli", "to_ide_spec", "compiler.to_ide_spec", None),
    ("memsolve.cli", "load_netlist", "netlist.load", None),
    ("memsolve.cli", "validate", "netlist.validate", None),
    ("memsolve.cli", "lower", "netlist.lower", _lower_counts),
    ("memsolve.tolerance", "lower", "netlist.lower", _lower_counts),
    ("memsolve.cli", "simulate", "solver.simulate", None),
    ("memsolve.tolerance", "simulate", "solver.simulate", None),
    ("memsolve.cli", "stability_run", "tolerance.stability_run", _stability_counts),
    ("memsolve.tolerance", "perturb", "tolerance.perturb", None),
    ("memsolve.backend", "rk4_python", "engine.rk4", _kernel_counts),
    ("memsolve.engine", "rk4_run_batch", "engine.rk4_batch", _batch_counts),
    ("memsolve.solver", "eval_expr_array_clamped", "exprs.transform", None),
    ("memsolve.tolerance", "eval_expr_array_clamped", "exprs.transform", None),
    ("memsolve.cli", "solve_ide", "oracle.solve_ide", _solve_ide_counts),
    ("memsolve.oracle", "solve_ide", "oracle.solve_ide", _solve_ide_counts),
    ("memsolve.cli", "solve_memristive_chain", "oracle.chain", None),
    ("memsolve.cli", "convergence_study", "oracle.convergence_study", None),
    ("memsolve.waveform:Waveform", "to_csv", "waveform.csv_write", _csv_counts),
    ("memsolve.tolerance:StabilityReport", "to_csv", "waveform.csv_write", _csv_counts),
)


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1                 # index into Tracer.spans, -1 for a root
    trace_id: int = 0                # the traced pass this span belongs to
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.trace_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self, trace_id: int) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.trace_id = trace_id
        for path, attr, name, hook in TARGETS:
            owner = _owner(path)
            original = inspect.getattr_static(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1,
                        trace_id=self.trace_id)
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                span.counts = hook(fn, args, kwargs, result)
            return result

        return traced

    def layer_metrics(self, trace_id: int, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced pass that took ``wall_s`` seconds."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s.trace_id == trace_id]
        child_time: dict[int, float] = {}
        for _, s in spans:
            if s.parent >= 0:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)

        total: dict[str, float] = {}
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        counts: dict[str, float] = {}
        for i, s in spans:
            dur = s.end - s.start
            total[s.name] = total.get(s.name, 0.0) + dur
            own[s.name] = own.get(s.name, 0.0) + dur - child_time.get(i, 0.0)
            calls[s.name] = calls.get(s.name, 0) + 1
            for key, value in s.counts.items():
                key = f"{s.name}.{key}"
                counts[key] = counts.get(key, 0) + value
        # Work units: tape instructions evaluated, 4 RK stages per step plus
        # the recording stage of the final sample.
        rk4_work = sum(s.counts["instr"] * (4 * s.counts["steps"] + 1)
                       for _, s in spans if s.name == "engine.rk4")
        batch_work = sum(s.counts["instr"] * (4 * s.counts["steps"] + 1) * s.counts["lanes"]
                         for _, s in spans if s.name == "engine.rk4_batch")

        def t(name):
            return total.get(name, 0.0)

        def c(key):
            return counts.get(key, 0)

        def ratio(num, den, scale=1.0):
            return num * scale / den if den else 0.0

        solve_ide_s = t("oracle.solve_ide")
        layers = {
            "compiler.compile_s": t("compiler.load_equation_spec") + t("compiler.compile_equation")
            + t("compiler.to_ide_spec"),
            "netlist.load_s": t("netlist.load"),
            "netlist.validate_s": t("netlist.validate"),
            "netlist.lower_s": t("netlist.lower"),
            "netlist.lower_calls": calls.get("netlist.lower", 0),
            "netlist.tape_instr": c("netlist.lower.instr"),
            "engine.rk4_s": t("engine.rk4"),
            "engine.rk4_steps": c("engine.rk4.steps"),
            "engine.rk4_ns_per_instr_stage": ratio(t("engine.rk4"), rk4_work, 1e9),
            "engine.batch_s": t("engine.rk4_batch"),
            "engine.batch_lane_steps": sum(s.counts["steps"] * s.counts["lanes"]
                                           for _, s in spans if s.name == "engine.rk4_batch"),
            "engine.batch_ns_per_instr_stage_lane": ratio(t("engine.rk4_batch"), batch_work, 1e9),
            "engine.batch_dead_lanes": c("engine.rk4_batch.dead"),
            "solver.simulate_self_s": own.get("solver.simulate", 0.0),
            "exprs.transform_s": t("exprs.transform"),
            "exprs.transform_calls": calls.get("exprs.transform", 0),
            "tolerance.perturb_s": t("tolerance.perturb"),
            "tolerance.perturb_calls": calls.get("tolerance.perturb", 0),
            "tolerance.reduce_s": own.get("tolerance.stability_run", 0.0),
            "tolerance.ok_ratio": ratio(c("tolerance.stability_run.ok"),
                                        c("tolerance.stability_run.iterations")),
            "oracle.solve_ide_s": solve_ide_s,
            "oracle.solve_ide_steps": c("oracle.solve_ide.steps"),
            "oracle.chain_s": t("oracle.chain"),
            "oracle.ns_per_step": ratio(solve_ide_s, c("oracle.solve_ide.steps"), 1e9),
            "waveform.csv_write_s": t("waveform.csv_write"),
            "waveform.csv_bytes": c("waveform.csv_write.bytes"),
            "cli.self_s": own.get("cli.main", 0.0),
            "trace.coverage": ratio(sum(v for k, v in own.items() if k != "cli.main"), wall_s),
        }
        return {k: float(v) for k, v in layers.items()}
