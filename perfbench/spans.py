"""Span recording for the traced benchmark run.

The tracer wraps the package from outside: every public function of the
eight layer modules, in every module namespace that binds it, and the
arithmetic methods of ``LaurentPoly`` and ``AlgebraElement``.  A span is
(name, start, end, parent); spans stay in memory until the iteration
ends, and ``uninstall`` puts every original attribute back.

This module imports nothing from the package at import time, so the
parent process and the self-tests can use it without numpy.
"""

from __future__ import annotations

import functools
import inspect
import time

LAYERS = ("qlaurent", "sigma3", "grading", "qwrp", "parser", "fockrep", "ktheory", "cli")

ARITHMETIC = {
    "qlaurent": ("LaurentPoly", ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
                                 "__mul__", "__rmul__", "__pow__", "inverse")),
    "sigma3": ("AlgebraElement", ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
                                  "__mul__", "__rmul__", "__pow__", "star", "try_inverse")),
}

# Per-layer metric -> the span names whose self time (or count) it sums.
SELF_TIME = {
    "qlaurent.mul_s": ("qlaurent.LaurentPoly.__mul__", "qlaurent.LaurentPoly.__rmul__"),
    "qlaurent.add_s": ("qlaurent.LaurentPoly.__add__", "qlaurent.LaurentPoly.__radd__"),
    "sigma3.mul_s": ("sigma3.AlgebraElement.__mul__", "sigma3.AlgebraElement.__rmul__", "sigma3.mul"),
    "sigma3.star_s": ("sigma3.AlgebraElement.star", "sigma3.star"),
    "grading.element_degrees_s": ("grading.element_degrees",),
    "parser.lower_text_s": ("parser.lower_text",),
    "parser.render_s": ("parser.render",),
    "qwrp.verify_relations_s": ("qwrp.verify_relations",),
    "qwrp.eval_side_s": ("qwrp.eval_side",),
    "qwrp.factorize_s": ("qwrp.factorize",),
    "qwrp.enumerate_word_monomials_s": ("qwrp.enumerate_word_monomials",),
    "fockrep.relation_residuals_s": ("fockrep.relation_residuals",),
    "fockrep.eval_side_matrix_s": ("fockrep.eval_side_matrix",),
    "fockrep.intertwiner_check_s": ("fockrep.intertwiner_check",),
    "fockrep.kernel_conditions_exact_s": ("fockrep.kernel_conditions_exact",),
    "fockrep.scalar_relation_residual_s": ("fockrep.scalar_relation_residual",),
    "fockrep.faithfulness_probe_s": ("fockrep.faithfulness_probe",),
    "fockrep.rep_generator_s": ("fockrep.rep_generator",),
    "fockrep.rep_sigma_s": ("fockrep.rep_sigma",),
    "ktheory.coisometry_lift_s": ("ktheory.coisometry_lift",),
    "ktheory.index_map_s": ("ktheory.index_map",),
    "ktheory.index_map_stable_s": ("ktheory.index_map_stable",),
    "ktheory.smith_normal_form_s": ("ktheory.smith_normal_form",),
    "ktheory.cokernel_map_check_s": ("ktheory.cokernel_map_check",),
    "ktheory.pullback_check_s": ("ktheory.pullback_check",),
    "cli.main_s": ("cli.main",),
}
CALLS = {
    "qlaurent.mul_calls": SELF_TIME["qlaurent.mul_s"],
    "qlaurent.add_calls": SELF_TIME["qlaurent.add_s"],
    "sigma3.mul_calls": SELF_TIME["sigma3.mul_s"],
    "parser.exprs": SELF_TIME["parser.lower_text_s"],
    "fockrep.rep_generator_calls": SELF_TIME["fockrep.rep_generator_s"],
}


class Tracer:
    """Records one span per call of every wrapped callable."""

    def __init__(self, trace_id: str = ""):
        self.trace_id = trace_id
        self.spans: list = []          # (name, start, end, parent index or -1)
        self.max_terms = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def wrap(self, name: str, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _note_terms(self, result) -> None:
        # O(1): this runs after the span's end, so its cost lands in the caller.
        coeffs = getattr(result, "_coeffs", None)
        if coeffs is not None and len(coeffs) > self.max_terms:
            self.max_terms = len(coeffs)

    # -- installing into the package -------------------------------------

    def install(self) -> None:
        """Wrap every public function of the layer modules wherever the
        package binds it, and the scalar/element arithmetic methods."""
        import importlib

        package = importlib.import_module("qrwp")
        modules = {layer: importlib.import_module(f"qrwp.{layer}") for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for ns in (package, *modules.values()):
            for attr, obj in list(vars(ns).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patch(ns, attr, wrapper)
        for layer, (cls_name, methods) in ARITHMETIC.items():
            cls = getattr(modules[layer], cls_name)
            hook = self._note_terms if layer == "qlaurent" else None
            for attr in methods:
                fn = cls.__dict__.get(attr)
                if fn is not None:
                    self._patch(cls, attr, self.wrap(f"{layer}.{cls_name}.{attr}", fn, hook))

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------

    def dump(self, path) -> None:
        """Write the spans as CSV: trace id, span index, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("trace,span,name,start,end,parent\n")
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{self.trace_id},{idx},{name},{start:.9f},{end:.9f},{parent}\n")


def span_totals(spans) -> dict[str, list]:
    """{span name: [calls, self seconds]}; self time is a span's duration
    minus the durations of its direct children (calls nest, one thread)."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, list] = {}
    for idx, (name, start, end, parent) in enumerate(spans):
        entry = totals.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - child[idx]
    return totals


def layer_metrics(totals: dict[str, list]) -> dict[str, float]:
    """Per-layer self times and call counts from span totals, and each
    layer's span count and summed self time; a layer the workload never
    calls reads 0."""
    out: dict[str, float] = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(totals[n][1] for n in names if n in totals)
    for metric, names in CALLS.items():
        out[metric] = sum(totals[n][0] for n in names if n in totals)
    for layer in LAYERS:
        mine = [v for n, v in totals.items() if n.split(".", 1)[0] == layer]
        out[f"{layer}.self_s"] = sum(v[1] for v in mine)
        out[f"{layer}.spans"] = sum(v[0] for v in mine)
    return out
