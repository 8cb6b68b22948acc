"""The benchmark's tracer names prufer functions; each name must resolve.

``bench/spans.py`` wraps every ``(module, function)`` in its ``TRACED`` table.
A function deleted or renamed in prufer would only show when a traced
benchmark run crashes, so this loads the file by path and checks the table.
"""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    traced = _load_spans().TRACED
    assert traced
    missing = []
    for module_name, names in traced.items():
        module = importlib.import_module(f"prufer.{module_name}")
        missing.extend(f"{module_name}.{name}" for name in names if not callable(getattr(module, name, None)))
    assert missing == []
