"""Spans around calls into sphere_reg's public functions, recorded from outside.

``Tracer.install`` replaces each target function with a wrapper wherever
callers look it up: every attribute of a loaded ``sphere_reg`` module bound
to the original object (``from .harmonics import basis_matrix`` binds one
in ``selection``, ``operators`` and ``smoothing``), and the class attribute
for methods.  It patches the current process only; nothing under ``src/``
changes.  Spans (name, start, end, parent) stay in memory until ``dump``.

With ``memory=True`` each span also records the tracemalloc peak above the
traced level at its start.  That pass is kept apart from the timing pass
because tracemalloc slows allocation-heavy layers several-fold.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
import tracemalloc

# (module, attribute, span name); the select_two_step name is chosen per call.
TARGETS = [
    ("harmonics", "basis_matrix", "harmonics.basis_matrix"),
    ("quadrature", "sphere_rule", "quadrature.sphere_rule"),
    ("operators", "analyze", "operators.analyze"),
    ("operators", "synthesize", "operators.synthesize"),
    ("smoothing", "smooth", "smoothing.smooth"),
    ("collocation", "two_step_solve", "collocation.two_step_solve"),
    ("selection", "select_two_step", None),
    ("selection", "EvalGrid.degree_fields", "selection.degree_fields"),
    ("selection", "EvalGrid.basis", "selection.eval_grid_basis"),
    ("selection", "sup_norm", "selection.sup_norm"),
    ("experiments", "simulate_problem", "experiments.simulate_problem"),
    ("experiments", "relative_sup_error", "experiments.relative_sup_error"),
    ("cli", "read_samples_csv", "cli.read_samples_csv"),
    ("cli", "write_coeffs_csv", "cli.write_coeffs_csv"),
    ("cli", "write_trace_csv", "cli.write_trace_csv"),
]

# span fields
NAME, START, END, PARENT, MB, PEAK_MB = range(6)


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[list] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = [name_of(args, kwargs), 0.0, 0.0, stack[-1][0] if stack else -1,
                    0.0, 0.0]
            index = len(self.spans)
            self.spans.append(span)
            # per open span: [index, traced level at start, highest peak seen]
            frame = [index, 0, 0]
            if self.memory:
                level, peak = tracemalloc.get_traced_memory()
                if stack:
                    stack[-1][2] = max(stack[-1][2], peak)
                tracemalloc.reset_peak()
                frame[1] = frame[2] = level
            stack.append(frame)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                if self.memory:
                    frame[2] = max(frame[2], tracemalloc.get_traced_memory()[1])
                    span[PEAK_MB] = (frame[2] - frame[1]) / 1e6
                    if stack:
                        stack[-1][2] = max(stack[-1][2], frame[2])
            span[MB] = getattr(result, "nbytes", 0) / 1e6
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded sphere_reg module."""
        for module_name, attr, span_name in TARGETS:
            module = importlib.import_module(f"sphere_reg.{module_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = getattr(cls, meth)
                setattr(cls, meth, self.wrap(original, _fixed(span_name)))
                continue
            original = getattr(module, attr)
            name_of = _fixed(span_name) if span_name else _selection_name(module, original)
            wrapper = self.wrap(original, name_of)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "sphere_reg" and not mod_name.startswith("sphere_reg."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        if self.memory:
            tracemalloc.start()

    def dump(self, path: str) -> None:
        if self.memory:
            tracemalloc.stop()
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _fixed(name):
    return lambda args, kwargs: name


def _selection_name(module, select_two_step):
    """51 x 51 searches are 'two_step'; a one-value grid makes 'one_param'."""
    signature = inspect.signature(select_two_step)

    def name_of(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        sizes = [len(module.grid_values(bound.arguments[g]))
                 for g in ("alpha_grid", "lambda_grid")]
        return "selection.one_param" if min(sizes) == 1 else "selection.two_step"

    return name_of


def aggregate(spans: list) -> dict:
    """Per span name: self seconds, calls, largest returned MB, largest peak MB.

    Self time is a span's duration minus the durations of its direct
    children; spans nest because every traced call runs on the calling
    thread.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    out: dict[str, dict] = {}
    for span, inner in zip(spans, child_time):
        entry = out.setdefault(span[NAME], {"s": 0.0, "calls": 0, "mb": 0.0, "peak_mb": 0.0})
        entry["s"] += span[END] - span[START] - inner
        entry["calls"] += 1
        entry["mb"] = max(entry["mb"], span[MB])
        entry["peak_mb"] = max(entry["peak_mb"], span[PEAK_MB])
    return out
