"""Per-layer spans around prufer's public functions, taken from outside it.

``Tracer.installed()`` replaces each function in ``TRACED``, in every prufer
module that binds it, by a wrapper that records a span: name, start, end,
parent span, for some functions a work count, and the factor that rescales
its times to the reference speed (see ``run.probe``).  Spans stay in memory
until ``write`` dumps them at the end of the run.  A span's self time is its
duration minus the time its child spans cover; its total time is its
duration, counted once where the function calls itself.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager

TRACED = {
    "orders": ("load_order", "is_commutative", "is_reduced", "minimal_polynomial"),
    "splitting": ("find_primitive_element", "decompose", "component_order"),
    "factor": ("poly_factor",),
    "closure": ("discriminant", "factor_int", "p_radical", "ring_of_multipliers", "maximal_order"),
    "lattice": ("hnf_reduce", "integer_left_kernel"),
    "decision": ("decide_pruefer", "verify_certificate"),
    "ivp": ("int_member_order",),
}
SEARCH = "splitting.find_primitive_element"
MINPOLY = "orders.minimal_polynomial"


def _kernel_cells(args, result) -> int:
    rows = args[0]
    return len(rows) * len(rows[0]) if rows else 0


def _residues(args, result) -> int:
    order, f = args[0], args[1]
    return 0 if f.is_zero or f.denominator == 1 else f.denominator**order.dim


def _enlarging(args, result) -> int:
    return int(result.index > 1)


# Work counts recorded with the spans of these functions.
COUNTS = {
    "lattice.integer_left_kernel": _kernel_cells,
    "ivp.int_member_order": _residues,
    "closure.ring_of_multipliers": _enlarging,
}


def metric_names() -> list[str]:
    names = [f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns]
    return [f"{n}.{kind}" for n in names for kind in ("self_s", "total_s", "calls")] + [
        f"{SEARCH}.candidates",
        "closure.ring_of_multipliers.enlarging",
        "lattice.integer_left_kernel.max_cells",
        "ivp.int_member_order.residues",
    ]


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1, count, scale]
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, count):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, 1.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Trace every name in TRACED while the block runs."""
        modules = [m for key, m in list(sys.modules.items()) if key == "prufer" or key.startswith("prufer.")]
        replaced = []
        try:
            for short, fns in TRACED.items():
                home = importlib.import_module(f"prufer.{short}")
                for fn in fns:
                    original = getattr(home, fn)
                    name = f"{short}.{fn}"
                    wrapper = self._wrap(name, original, COUNTS.get(name))
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, attr, wrapper)
                                replaced.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(replaced):
                setattr(module, attr, original)

    def begin(self) -> int:
        """Start an operation: forget spans left open by an interrupted one,
        and return the index its first span will get."""
        self._stack.clear()
        return len(self.spans)

    def rescale(self, first: int, scale: float) -> None:
        """Set the speed factor of the spans recorded since index ``first``."""
        for span in self.spans[first:]:
            span[5] = scale

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass self time, calls and work counts of every traced function."""
        spans = self.spans
        child = [0.0] * len(spans)
        under_search = [False] * len(spans)
        for i, (name, start, end, parent, _, scale) in enumerate(spans):
            if parent >= 0:
                child[parent] += (end - start) * scale
                under_search[i] = under_search[parent] or spans[parent][0] == SEARCH
        values = dict.fromkeys(metric_names(), 0.0)
        for i, (name, start, end, parent, count, scale) in enumerate(spans):
            duration = (end - start) * scale
            values[f"{name}.self_s"] += duration - child[i]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                values[f"{name}.total_s"] += duration
            values[f"{name}.calls"] += 1
            if name == MINPOLY and under_search[i]:
                values[f"{SEARCH}.candidates"] += 1
            elif name == "closure.ring_of_multipliers" and count is not None:
                values["closure.ring_of_multipliers.enlarging"] += count
            elif name == "ivp.int_member_order" and count is not None:
                values["ivp.int_member_order.residues"] += count
        out = {key: value / passes for key, value in values.items()}
        cells = [s[4] for s in spans if s[0] == "lattice.integer_left_kernel" and s[4] is not None]
        out["lattice.integer_left_kernel.max_cells"] = max(cells, default=0)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
