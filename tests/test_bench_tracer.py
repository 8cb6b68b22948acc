"""The benchmark's tracer names prufer functions; each name must resolve.

``bench/spans.py`` wraps every ``(module, function)`` in its ``TRACED`` table.
A function deleted or renamed in prufer would only show when a traced
benchmark run crashes, so this loads the file by path and checks the table.
A function the program stops calling would only show as a count of 0, so a
decision run under the tracer must record each stage it passes through.
"""

import importlib
import importlib.util
import pathlib
import time

from prufer.decision import decide_pruefer, verify_certificate

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


def test_the_tracer_sees_the_decision_path(equation_product):
    # Every traced stage of one decide plus verify of a product records a
    # span, so the benchmark's per-layer counts follow the path the program
    # takes, not names it no longer calls.
    order = equation_product((1, 0, 1), (-2, 0, 0, 1), (-3, 0, 0, 0, 1))
    tracer = _load_spans().Tracer(time.perf_counter)
    with tracer.installed():
        assert verify_certificate(order, decide_pruefer(order))
    names = {span[0] for span in tracer.spans}
    stages = (
        "splitting.decompose",
        "splitting.find_primitive_element",
        "splitting.component_order",
        "factor.poly_factor",
        "closure.discriminant",
    )
    assert [stage for stage in stages if stage not in names] == []
