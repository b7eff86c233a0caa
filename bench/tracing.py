"""Layer spans recorded from outside the program.

A traced op replaces, for its duration, the names one chpdispatch module
imported from another with wrappers that open a span around the call.
Nothing inside the package changes. Modules are resolved through
``importlib.import_module`` because ``chpdispatch/__init__.py`` rebinds
some submodule names (``chpdispatch.tighten`` is the function there), so
attribute access on the package would patch the wrong object.
"""

from __future__ import annotations

import importlib
import os
import time
from dataclasses import dataclass, field

LAYERS = ("cli", "config_io", "reference", "compile", "tighten", "dispatch", "lp", "validation")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: int | None
    end: float = 0.0
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """In-memory span stack; the spans of one op share the tracer."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, layer, time.perf_counter(), parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration


def _tighten_name(args, kwargs) -> str:
    return "tighten." + kwargs.get("mode", args[4] if len(args) > 4 else "box")


def _row_steps(args, kwargs, schedule) -> dict:
    return {"row_steps": sum(len(f.steps) * f.polyhedron.n_rows for f in schedule.families.values())}


def _lp(args, kwargs, problem) -> dict:
    return {"lp": problem.lp}


def _config_bytes(args, kwargs, result) -> dict:
    source = args[0] if args else kwargs.get("source")
    return {"bytes": os.path.getsize(source) if isinstance(source, (str, os.PathLike)) else 0}


def _scenario_steps(args, kwargs, result) -> dict:
    ssm = args[1] if len(args) > 1 else kwargs["ssm"]
    batch = args[4] if len(args) > 4 else kwargs["batch"]
    return {"scenario_steps": batch.count * ssm.horizon}


# (module, imported name, span name or namer, layer, attrs from (args, kwargs, result))
CALL_SITES = (
    ("chpdispatch.cli", "load_system", "config_io.load", "config_io", _config_bytes),
    ("chpdispatch.cli", "build_reference_system", "reference.build", "reference", None),
    ("chpdispatch.cli", "reference_document", "reference.build", "reference", None),
    ("chpdispatch.cli", "compile_state_space", "compile.state_space", "compile", None),
    ("chpdispatch.cli", "compile_constraints", "compile.constraints", "compile", None),
    ("chpdispatch.cli", "compile_uncertainty_tube", "compile.tube", "compile", None),
    ("chpdispatch.cli", "tighten", _tighten_name, "tighten", _row_steps),
    ("chpdispatch.cli", "deterministic_schedule", "tighten.do", "tighten", _row_steps),
    ("chpdispatch.cli", "build_nominal_problem", "dispatch.build", "dispatch", _lp),
    ("chpdispatch.cli", "solve_dispatch", "dispatch.solve", "dispatch", None),
    ("chpdispatch.cli", "compare_methods", "validation.compare", "validation", None),
    ("chpdispatch.cli", "sample_disturbances", "validation.sample", "validation", None),
    ("chpdispatch.cli", "evaluate", "validation.evaluate", "validation", _scenario_steps),
    ("chpdispatch.dispatch", "build_nominal_problem", "dispatch.build", "dispatch", _lp),
    ("chpdispatch.dispatch", "solve_lp", "lp.solve", "lp",
     lambda a, k, r: {"iterations": r.iterations}),
    ("chpdispatch.dispatch", "check_kkt", "lp.kkt", "lp", None),
    ("chpdispatch.validation", "tighten", _tighten_name, "tighten", _row_steps),
    ("chpdispatch.validation", "deterministic_schedule", "tighten.do", "tighten", _row_steps),
    ("chpdispatch.validation", "solve_dispatch", "dispatch.solve", "dispatch", None),
    ("chpdispatch.validation", "sample_disturbances", "validation.sample", "validation", None),
    ("chpdispatch.validation", "evaluate", "validation.evaluate", "validation", _scenario_steps),
    ("chpdispatch.validation", "realized_cost", "validation.realized_cost", "validation", None),
)


def _wrap(tracer: Tracer, fn, name, layer: str, attrs):
    def wrapper(*args, **kwargs):
        span = tracer.open(name(args, kwargs) if callable(name) else name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if attrs is not None:
            span.attrs.update(attrs(args, kwargs, result))
        return result

    return wrapper


class Instrumented:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        try:
            for module_name, attr, name, layer, attrs in CALL_SITES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, _wrap(self.tracer, original, name, layer, attrs))
        except BaseException:
            self._restore()
            raise
        return self.tracer

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def _lp_shape(lp) -> dict:
    import numpy as np

    stored = lp.g.size + lp.a_eq.size
    nnz = int(np.count_nonzero(lp.g)) + int(np.count_nonzero(lp.a_eq))
    return {
        "dispatch.lp_vars": lp.n_vars,
        "dispatch.lp_rows": lp.n_ineq + lp.n_eq,
        "dispatch.lp_nnz": nnz,
        "dispatch.lp_stored_bytes": lp.g.nbytes + lp.a_eq.nbytes,
        "dispatch.lp_density": nnz / stored if stored else 0.0,
    }


def op_metrics(spans: list[Span], op_s: float, bytes_written: int) -> dict:
    """Per-layer metrics of one traced op, whose wall time is ``op_s``.

    Self times of all spans add up to the root spans' time; what the root
    spans do not cover is reported as ``trace.uncovered_s``.
    """

    def self_of(name: str) -> float:
        return sum(s.self_s for s in spans if s.name == name)

    def total(key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in spans)

    layer_self = {layer: sum(s.self_s for s in spans if s.layer == layer) for layer in LAYERS}
    evaluate_s = sum(s.duration for s in spans if s.name == "validation.evaluate")
    scenario_steps = total("scenario_steps")
    # the other layers' self times are the sums of their named spans below
    m = {f"{layer}.self_s": layer_self[layer] for layer in ("cli", "dispatch", "validation")}
    m.update({
        "cli.bytes_written": bytes_written,
        "config_io.load_s": self_of("config_io.load"),
        "config_io.bytes": total("bytes"),
        "reference.build_s": self_of("reference.build"),
        "compile.state_space_s": self_of("compile.state_space"),
        "compile.constraints_s": self_of("compile.constraints"),
        "compile.tube_s": self_of("compile.tube"),
        "tighten.box_s": self_of("tighten.box"),
        "tighten.budget_s": self_of("tighten.budget"),
        "tighten.do_s": self_of("tighten.do"),
        "tighten.row_steps": total("row_steps"),
        "dispatch.build_s": self_of("dispatch.build"),
        "lp.solve_s": self_of("lp.solve"),
        "lp.kkt_s": self_of("lp.kkt"),
        "lp.calls": sum(1 for s in spans if s.name == "lp.solve"),
        "lp.iterations": total("iterations"),
        "validation.evaluate_s": self_of("validation.evaluate"),
        "validation.realized_cost_s": self_of("validation.realized_cost"),
        "validation.realized_cost_calls": sum(1 for s in spans if s.name == "validation.realized_cost"),
        "validation.sample_s": self_of("validation.sample"),
        "validation.scenario_steps": scenario_steps,
        "validation.scenario_steps_per_s": scenario_steps / evaluate_s if evaluate_s else 0.0,
    })
    lps = [s.attrs["lp"] for s in spans if "lp" in s.attrs]
    largest = max(lps, key=lambda lp: lp.g.size + lp.a_eq.size) if lps else None
    m.update(_lp_shape(largest) if largest is not None else {
        "dispatch.lp_vars": 0, "dispatch.lp_rows": 0, "dispatch.lp_nnz": 0,
        "dispatch.lp_stored_bytes": 0, "dispatch.lp_density": 0.0,
    })
    m["trace.op_s"] = op_s
    m["trace.uncovered_s"] = op_s - sum(layer_self.values())
    return m
