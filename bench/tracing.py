"""Per-layer tracing from outside the library.

Each layer is a public function or method of ``tracelang``.  Tracing replaces
it, at every module attribute or class attribute that holds it, with a
wrapper that records a span (operation id, span id, parent span id, layer,
start, end) and adds the span's duration to its parent's child time, so a
layer's self time is its span time minus the part its child spans cover.

Aggregates (calls, self time, and the number of choices that
``successor_choices`` returned) cover every span.  Individual
spans are kept in memory up to ``MAX_SPANS`` per run and written out once, at
the end, by :meth:`Recorder.write_spans`.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (module, attribute path) of every traced layer, bottom of the stack first
LAYERS = (
    ("tracelang.cq", "evaluate_unary_cq"),
    ("tracelang.modules", "successor_choices"),
    ("tracelang.modules", "apply_choice"),
    ("tracelang.engine", "Trace.extend"),
    ("tracelang.engine", "Trace.key"),
    ("tracelang.engine", "Evaluator.exists"),
    ("tracelang.engine", "Evaluator.replay"),
    ("tracelang.engine", "run_main_task"),
    ("tracelang.terms", "desugar"),
    ("tracelang.parser", "parse_program"),
    ("tracelang.structures", "parse_structure"),
    ("tracelang.witness_io", "witness_from_json"),
    ("tracelang.witness_io", "verify_witness_file"),
    ("tracelang.lab", "strongly_equivalent"),
    ("tracelang.lab", "before_after_equivalent"),
)

MAX_SPANS = 20_000


def layer_name(module: str, path: str) -> str:
    return f"{module.removeprefix('tracelang.')}.{path}"


NAMES = tuple(layer_name(m, p) for m, p in LAYERS)


def _original(module: str, path: str):
    """The library's own function for a layer (the class attribute for methods)."""
    obj = importlib.import_module(module)
    *owners, attr = path.split(".")
    for owner in owners:
        obj = getattr(obj, owner)
    return obj, attr, getattr(obj, attr)


def _binding_sites(fn) -> list[tuple[object, str]]:
    """Every (module, attribute) of the package that refers to ``fn``: the
    defining module and each module that imported the name."""
    return [
        (mod, attr)
        for mod in _package_modules()
        for attr, value in list(vars(mod).items())
        if value is fn
    ]


def _package_modules():
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "tracelang" or name.startswith("tracelang."))
    ]


def check_pristine() -> list[str]:
    """Layer names that are not the library's original function: a wrapper
    left in place, or a module whose imported name differs from the
    defining module's.  Empty when nothing is traced."""
    problems = []
    for module, path in LAYERS:
        _, attr, fn = _original(module, path)
        if hasattr(fn, "__wrapped__"):
            problems.append(f"{layer_name(module, path)} is wrapped")
        if "." in path:
            continue
        for mod in _package_modules():
            value = vars(mod).get(attr, fn)
            if value is not fn:
                problems.append(f"{mod.__name__}.{attr} is not {module}.{attr}")
    return problems


class Recorder:
    """Spans and per-layer aggregates of one traced run."""

    def __init__(self):
        n = len(LAYERS)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.choices = 0  # total length of the successor_choices results
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op_id = 0
        self._next_id = 0
        self._stack: list[list] = []  # [span id, child time] of open spans
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, idx: int, fn, counts_choices: bool):
        perf = time.perf_counter
        stack = self._stack
        spans = self.spans
        calls, self_s = self.calls, self.self_s
        rec = self

        def wrapper(*args, **kwargs):
            sid = rec._next_id
            rec._next_id = sid + 1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                if counts_choices:
                    rec.choices += len(result)
                return result
            finally:
                t1 = perf()
                stack.pop()
                dt = t1 - t0
                calls[idx] += 1
                self_s[idx] += dt - frame[1]
                parent = -1
                if stack:
                    stack[-1][1] += dt
                    parent = stack[-1][0]
                if len(spans) < MAX_SPANS:
                    spans.append((rec.op_id, sid, parent, idx, t0, t1))
                else:
                    rec.dropped += 1

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def patch(self) -> None:
        """Install the wrappers at every place that looks a layer up."""
        for idx, (module, path) in enumerate(LAYERS):
            owner, attr, fn = _original(module, path)
            wrapper = self._wrap(idx, fn, NAMES[idx] == "modules.successor_choices")
            sites = [(owner, attr)] if "." in path else _binding_sites(fn)
            for site, name in sites:
                self._patched.append((site, name, fn))
                setattr(site, name, wrapper)

    def unpatch(self) -> None:
        for site, name, fn in reversed(self._patched):
            setattr(site, name, fn)
        self._patched.clear()

    def write_spans(self, path, meta: dict) -> None:
        doc = dict(meta, layers=list(NAMES), dropped=self.dropped,
                   fields=["op", "span", "parent", "layer", "start", "end"],
                   spans=self.spans)
        with open(path, "w") as f:
            json.dump(doc, f, separators=(",", ":"))
